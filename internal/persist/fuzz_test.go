package persist

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzLoadBundle throws arbitrary bytes at what LoadFile does with a file —
// the head classifier, then the flat decoder — and at what InspectFile does.
// Its contract under fuzzing is: never panic, never hang, and when the load
// does accept an input, the result must survive serving validation or be
// rejected by it — no third outcome — and inspect must agree: no error, every
// checksum good, the same sections. Seeds
// cover real bundles, single-source, accelerated and federated, the torn
// variants the crash-safety layer defends against, and the retired forms,
// which must never load however they are mutated.
func FuzzLoadBundle(f *testing.F) {
	ing := buildIngestion(f)
	jb := readFixture(f, "retired-v1.json")
	f.Add(jb)
	f.Add(jb[:len(jb)/2])
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})

	// Retired forms, whole and torn.
	for _, name := range []string{"retired-v2.mrxb", "retired-v3.mrxb", "retired-v1-accel.json", "retired-postings.flat", "retired-sources-json.flat", "retired-no-resolver.flat", "retired-token-index.flat"} {
		data := readFixture(f, name)
		f.Add(data)
		f.Add(data[:len(data)*3/4])
	}
	f.Add(readFixture(f, "retired-v3.mrxb")[:16])
	f.Add([]byte(retiredBinaryMagic))

	// Flat seeds. Flat encodes accelerations fixed-width, so seeds use the
	// small accel build — full-fat fixtures overflow the fuzzer's shared
	// memory.
	fa := saveFlatBytes(f, buildSmallAccelIngestion(f))
	f.Add(saveFlatBytes(f, ing))
	f.Add(fa)
	f.Add(fa[:len(fa)/2])
	f.Add([]byte("MRXF"))

	// A federated bundle, whole and torn, so mutations explore the sources
	// table and the secondary's families too.
	ff := saveFlatBytes(f, buildFederatedIngestion(f))
	f.Add(ff)
	f.Add(ff[:len(ff)*3/4])

	f.Fuzz(func(t *testing.T, data []byte) {
		info, ierr := inspectBytes(data)
		restored, err := loadBytes(data)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(flatMagic)) {
			t.Fatalf("a bundle without the flat magic loaded: %q", data[:min(len(data), 8)])
		}
		// Accepted input: the decoder vouched for it, so it must be
		// internally consistent enough for ValidateForServing to give a
		// deterministic verdict (either way) without panicking.
		_ = ValidateForServing(restored)
		if ierr != nil || !info.CRCOK {
			t.Fatalf("a loaded bundle inspects with error %v, CRCOK %v", ierr, info != nil && info.CRCOK)
		}
		entries, _ := readFlatDirectory(data)
		if len(info.Sections) != len(entries) {
			t.Fatalf("inspect lists %d sections, the loaded directory %d", len(info.Sections), len(entries))
		}
		for i, s := range info.Sections {
			if s.Kind != entries[i].kind || !s.CRCOK {
				t.Fatalf("inspect lists section %d as %+v, the loaded directory as kind %d", i, s, entries[i].kind)
			}
		}
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
	for _, c := range structurallyCorrupt(f, accel) {
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
