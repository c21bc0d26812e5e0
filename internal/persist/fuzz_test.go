package persist

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzLoadBundle throws arbitrary bytes at the bundle decoder. The
// decoder's contract under fuzzing is: never panic, never hang, and when
// it does accept an input, the result must survive serving validation or
// be rejected by it — no third outcome. Seeds cover both real formats
// plus the torn variants the crash-safety layer defends against, and the
// retired forms, which must never load however they are mutated.
func FuzzLoadBundle(f *testing.F) {
	ing := buildIngestion(f)
	var jb bytes.Buffer
	if err := Save(&jb, ing); err != nil {
		f.Fatal(err)
	}
	f.Add(jb.Bytes())
	f.Add(jb.Bytes()[:len(jb.Bytes())/2])
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})

	// Retired forms, whole and torn.
	for _, name := range []string{"retired-v2.mrxb", "retired-v3.mrxb", "retired-v1-accel.json", "retired-postings.flat"} {
		data := readFixture(f, name)
		f.Add(data)
		f.Add(data[:len(data)*3/4])
	}
	f.Add(readFixture(f, "retired-v3.mrxb")[:16])
	f.Add([]byte(retiredBinaryMagic))

	// v4 seeds: flat bundles reach Load through the magic sniff. Flat
	// encodes accelerations fixed-width, so seeds use the small accel
	// build — full-fat fixtures overflow the fuzzer's shared memory.
	smallAccel := buildSmallAccelIngestion(f)
	var fb, fa bytes.Buffer
	if err := SaveFlat(&fb, ing); err != nil {
		f.Fatal(err)
	}
	if err := SaveFlat(&fa, smallAccel); err != nil {
		f.Fatal(err)
	}
	f.Add(fb.Bytes())
	f.Add(fa.Bytes())
	f.Add(fa.Bytes()[:len(fa.Bytes())/2])
	f.Add([]byte("MRXF"))

	// Multi-source seeds: federated bundles carrying the named-source
	// section (flat) and field (JSON), whole and torn, so mutations explore
	// the source-restore path too.
	fed := buildFederatedIngestion(f)
	var jf, ff bytes.Buffer
	if err := Save(&jf, fed); err != nil {
		f.Fatal(err)
	}
	if err := SaveFlat(&ff, fed); err != nil {
		f.Fatal(err)
	}
	f.Add(jf.Bytes())
	f.Add(ff.Bytes())
	f.Add(jf.Bytes()[:len(jf.Bytes())*3/4])
	f.Add(ff.Bytes()[:len(ff.Bytes())*3/4])

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte(retiredBinaryMagic)) {
			t.Fatalf("a %s stream loaded", retiredBinaryMagic)
		}
		// Accepted input: the decoder vouched for it, so it must be
		// internally consistent enough for ValidateForServing to give a
		// deterministic verdict (either way) without panicking.
		_ = ValidateForServing(restored)
	})
}

// FuzzOpenFlat aims arbitrary bytes straight at the flat (v4) decoder —
// the zero-copy path has to survive hostile directories, misaligned and
// overlapping sections, and bad per-section checksums without panicking
// or reading out of bounds. Seeds cover whole and torn real bundles plus
// directory-level mutations the corruption tests exercise deliberately.
func FuzzOpenFlat(f *testing.F) {
	ing := buildIngestion(f)
	accel := buildSmallAccelIngestion(f)
	var plain, withAccel bytes.Buffer
	if err := SaveFlat(&plain, ing); err != nil {
		f.Fatal(err)
	}
	if err := SaveFlat(&withAccel, accel); err != nil {
		f.Fatal(err)
	}
	fed := buildFederatedIngestion(f)
	var withSources bytes.Buffer
	if err := SaveFlat(&withSources, fed); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(withAccel.Bytes())
	f.Add(withSources.Bytes())
	f.Add(plain.Bytes()[:len(plain.Bytes())/2])
	f.Add(withSources.Bytes()[:len(withSources.Bytes())/2])
	f.Add(withAccel.Bytes()[:flatHeaderSize])
	f.Add([]byte("MRXF"))
	f.Add([]byte{})

	// A structurally valid header pointing its directory at garbage.
	hostile := append([]byte(nil), plain.Bytes()...)
	hostile[flatHeaderSize+1] ^= 0xFF // flip a section byte under a stale CRC
	f.Add(hostile)
	misdir := append([]byte(nil), plain.Bytes()...)
	misdir[16] ^= 0x04 // nudge dirOff off alignment
	f.Add(misdir)

	// The parent's layout (record candidates, no resolver), and new-section
	// edits a checksum cannot see: the validators' side of the format.
	f.Add(flatBytes(f, parentFlatSections(f, accel)))
	sections, err := encodeFlat(accel)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range structurallyCorrupt(f, accel, []int32{0}, 0) {
		edited := slices.Clone(sections)
		i := slices.IndexFunc(edited, func(s flatSection) bool { return s.kind == c.kind })
		edited[i].payload = c.edit(bytes.Clone(edited[i].payload))
		f.Add(flatBytes(f, edited))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// openFlatBytes requires aligned input, which mapBundle guarantees
		// in production; the fuzzer supplies arbitrary slices.
		buf := alignedBytes(len(data))
		copy(buf, data)
		restored, err := openFlatBytes(buf, &mapRef{size: int64(len(buf))})
		if err != nil {
			return
		}
		_ = ValidateForServing(restored)
	})
}
