package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"medrelax/internal/match"
)

// encodeBoth returns the same ingestion in both on-disk formats, the raw
// material for torn-write simulations.
func encodeBoth(t *testing.T) (jsonBundle, binBundle []byte) {
	t.Helper()
	ing := buildIngestion(t)
	var jb bytes.Buffer
	if err := Save(&jb, ing); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), saveFlatBytes(t, ing)
}

// TestLoadRejectsTornBundles simulates every tear and bit-flip class a
// crashed or lying storage layer can produce, in both formats, and
// demands a typed ErrCorruptBundle for each: a torn bundle must never
// load as a smaller-but-plausible world.
func TestLoadRejectsTornBundles(t *testing.T) {
	jsonBundle, binBundle := encodeBoth(t)

	flip := func(src []byte, off int) []byte {
		b := append([]byte(nil), src...)
		b[off] ^= 0x40
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		// Flat v4: tears at the header, mid-sections, and one byte short;
		// flips in the header's section count, in the first section, in a
		// section mid-file and in the directory's last entry.
		{"bin/truncated header", binBundle[:8]},
		{"bin/truncated quarter", binBundle[:len(binBundle)/4]},
		{"bin/truncated half", binBundle[:len(binBundle)/2]},
		{"bin/truncated one byte short", binBundle[:len(binBundle)-1]},
		{"bin/bitflip header length", flip(binBundle, 9)},
		{"bin/bitflip payload early", flip(binBundle, 32)},
		{"bin/bitflip payload middle", flip(binBundle, len(binBundle)/2)},
		{"bin/bitflip last byte", flip(binBundle, len(binBundle)-1)},

		// JSON v1: tears that still decode are caught by the embedded
		// CRC; tears that break the syntax by the decoder. Cutting the
		// closing brace breaks decoding; flipping a digit inside a value
		// leaves a parseable document whose checksum no longer matches.
		{"json/truncated quarter", jsonBundle[:len(jsonBundle)/4]},
		{"json/truncated half", jsonBundle[:len(jsonBundle)/2]},
		{"json/truncated before closing brace", jsonBundle[:len(jsonBundle)-2]},
		{"json/bitflip payload middle", flip(jsonBundle, len(jsonBundle)/2)},

		{"empty", nil},
		{"garbage", []byte("this is not a bundle\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ing, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("corrupt bundle loaded: %d concepts", ing.Graph.Len())
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("error is not ErrCorruptBundle: %v", err)
			}
		})
	}
}

// TestLoadFileErrorTyping pins the contract reload handling depends on:
// a corrupt file is ErrCorruptBundle (with the path in the message), a
// missing file is fs.ErrNotExist, and the two never overlap.
func TestLoadFileErrorTyping(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(corrupt, []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(corrupt)
	if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("corrupt file: got %v, want ErrCorruptBundle", err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt file reported as missing: %v", err)
	}
	if err != nil && !bytes.Contains([]byte(err.Error()), []byte(corrupt)) {
		t.Errorf("corrupt-file error does not name the path: %v", err)
	}

	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(empty); !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("empty file: got %v, want ErrCorruptBundle", err)
	}

	_, err = LoadFile(filepath.Join(dir, "missing.bin"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: got %v, want fs.ErrNotExist", err)
	}
	if errors.Is(err, ErrCorruptBundle) {
		t.Errorf("missing file reported as corrupt: %v", err)
	}
}

// structurallyCorrupt lists, per new flat section, edits a checksum cannot
// see: each returns the payload it wants the section to have instead. The
// sections are re-encoded around it, so every CRC in the file is valid and
// only the component validators stand between the edit and a read.
// nameKeys, flagged and multi (a token listed under two or more keys)
// describe the bundle the edits are aimed at.
func structurallyCorrupt(nameKeys, flagged int, tokOff []int32, multi int) []struct {
	name string
	kind uint32
	edit func(p []byte) []byte
} {
	le32 := binary.LittleEndian.PutUint32
	span := 4 * int(tokOff[multi]) // byte offset of multi's first posting
	return []struct {
		name string
		kind uint32
		edit func(p []byte) []byte
	}{
		{"lookup tokens truncated", secLkTokens, func(p []byte) []byte { return p[:len(p)-4] }},
		{"lookup token offsets truncated", secLkTokOff, func(p []byte) []byte { return p[:len(p)-4] }},
		{"lookup token keys truncated", secLkTokKeys, func(p []byte) []byte { return p[:len(p)-4] }},
		{"lookup descendant counts truncated", secLkDesc, func(p []byte) []byte { return p[:len(p)-4] }},
		{"lookup key signatures truncated", secLkKeySigs, func(p []byte) []byte { return p[:len(p)-8] }},
		{"lookup key signatures torn mid-value", secLkKeySigs, func(p []byte) []byte { return p[:len(p)-4] }},
		{"lookup token not ascending", secLkTokens, func(p []byte) []byte {
			a, b := binary.LittleEndian.Uint32(p[0:]), binary.LittleEndian.Uint32(p[4:])
			le32(p[0:], b)
			le32(p[4:], a)
			return p
		}},
		{"lookup posting out of range", secLkTokKeys, func(p []byte) []byte { le32(p[span+4:], uint32(nameKeys)); return p }},
		{"lookup postings descending", secLkTokKeys, func(p []byte) []byte {
			a, b := binary.LittleEndian.Uint32(p[span:]), binary.LittleEndian.Uint32(p[span+4:])
			le32(p[span:], b)
			le32(p[span+4:], a)
			return p
		}},
		{"lookup posting span empty", secLkTokOff, func(p []byte) []byte { copy(p[4:8], p[0:4]); return p }},
		{"lookup descendant count negative", secLkDesc, func(p []byte) []byte { le32(p, ^uint32(0)); return p }},
		{"candidate scores truncated", secMatCandScores, func(p []byte) []byte { return p[:len(p)-8] }},
		{"candidate slots truncated", secMatCandSlots, func(p []byte) []byte { return p[:len(p)-4] }},
		{"candidate slot past the flagged set", secMatCandSlots, func(p []byte) []byte { le32(p, uint32(flagged)<<8|1); return p }},
		{"candidate hops past the max radius", secMatCandSlots, func(p []byte) []byte { p[0] = 99; return p }},
		{"candidate rank order swapped", secMatCandScores, func(p []byte) []byte {
			var first [8]byte
			copy(first[:], p[:8])
			copy(p[:8], p[8:16])
			copy(p[8:16], first[:])
			return p
		}},
	}
}

// TestFlatNewSectionCorruptionFailsLoudly: a resolver or candidate-column
// section that is CRC-valid and structurally wrong is ErrCorruptBundle at
// open, never a panic and never a bundle that answers differently.
func TestFlatNewSectionCorruptionFailsLoudly(t *testing.T) {
	ing := buildSmallAccelIngestion(t)
	sections, err := encodeFlat(ing)
	if err != nil {
		t.Fatal(err)
	}
	lk := match.NewLookupService(ing.Graph).FlatData()
	multi := 0 // the first token listed under two keys
	for multi < len(lk.Tokens) && lk.TokOff[multi+1]-lk.TokOff[multi] < 2 {
		multi++
	}
	if md := ing.Materialized.FlatData(); multi == len(lk.Tokens) || md.CandOff[1] < 2 || md.CandScores[0] == md.CandScores[1] {
		t.Fatal("fixture too small to corrupt meaningfully")
	}
	open := func(sections []flatSection) error {
		data := flatBytes(t, sections)
		_, err := openFlatBytes(data, &mapRef{size: int64(len(data))})
		return err
	}
	if err := open(sections); err != nil {
		t.Fatalf("the unedited sections do not open: %v", err)
	}
	for _, c := range structurallyCorrupt(len(ing.Graph.NameKeys()), ing.FlaggedCount(), lk.TokOff, multi) {
		t.Run(c.name, func(t *testing.T) {
			edited := slices.Clone(sections)
			i := slices.IndexFunc(edited, func(s flatSection) bool { return s.kind == c.kind })
			if i < 0 {
				t.Fatalf("the writer emitted no section %d", c.kind)
			}
			// The payload may be the ingestion's own memory: edit a copy.
			edited[i].payload = c.edit(bytes.Clone(edited[i].payload))
			if err := open(edited); !errors.Is(err, ErrCorruptBundle) {
				t.Fatalf("opened with %v, want ErrCorruptBundle", err)
			}
		})
	}
}
