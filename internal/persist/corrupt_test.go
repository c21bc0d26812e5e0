package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"medrelax/internal/core"
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
// ing is the bundle the edits are aimed at — its candidate index holds an
// unflagged concept with candidates, a hit with a sole LCS and one with a tied
// set — and multi a token its resolver lists under two or more keys (tokOff).
func structurallyCorrupt(t testing.TB, ing *core.Ingestion, tokOff []int32, multi int) []flatEdit {
	le32 := binary.LittleEndian.PutUint32
	nameKeys, flagged, nodes := len(ing.Graph.NameKeys()), ing.FlaggedCount(), ing.Graph.Len()
	span := 4 * int(tokOff[multi]) // byte offset of multi's first posting

	// In the candidate index: bare is an unflagged concept with candidates;
	// sole and tied are hits, as word positions in the hit column, whose LCS
	// is one node and a tied set.
	cd := ing.Candidates.FlatData()
	stride, bare, sole, tied := cd.Radius+1, -1, -1, -1
	for ci := range cd.Concepts {
		lo, hi := 3*int(cd.Off[ci]), 3*int(cd.Off[ci+1])
		if bare < 0 && hi > lo && cd.Levels[ci*stride] == 0 {
			bare = ci
		}
		for w := lo + 3*int(cd.Levels[ci*stride]); w < hi; w += 3 {
			if lcs := cd.Hits[w+1]; sole < 0 && lcs >= 0 {
				sole = w
			} else if tied < 0 && lcs < 0 && lcs != math.MinInt32 {
				tied = w
			}
		}
	}
	if bare < 0 || sole < 0 || tied < 0 || len(cd.TiedOff) < 3 {
		t.Fatalf("the candidate index lacks something to corrupt: bare %d, sole %d, tied %d, %d tied sets", bare, sole, tied, len(cd.TiedOff)-1)
	}
	// word sets the 32-bit word at a position of a column.
	word := func(at int, v int32) func(p []byte) []byte {
		return func(p []byte) []byte { le32(p[4*at:], uint32(v)); return p }
	}
	last := func(p []byte) []byte { return p[:len(p)-4] }
	return []flatEdit{
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
		{"index hits not whole records", secCidxHits, last},
		{"index hit offsets torn", secCidxOff, last},
		{"index level ends truncated", secCidxLevels, last},
		{"index instance counts truncated", secCidxCounts, last},
		{"index shape offsets torn", secCidxShapeOff, last},
		{"index shapes not whole records", secCidxShapes, last},
		{"index tied-set offsets torn", secCidxSetOff, last},
		{"index tied-set boundaries truncated", secCidxTiedOff, last},
		{"index tied nodes truncated", secCidxTied, last},
		{"index slot past the flagged set", secCidxHits, word(sole, int32(flagged))},
		{"index LCS node past the graph", secCidxHits, word(sole+1, int32(nodes))},
		{"index shape past the concept's", secCidxHits, word(sole+2, int32(len(cd.Shapes)))},
		{"index tied set past the concept's", secCidxHits, word(tied+1, ^int32(len(cd.TiedOff)))},
		{"index hit at hop 0 of an unflagged concept", secCidxLevels, word(bare*stride, 1)},
		{"index level end past the span", secCidxLevels, word(bare*stride+cd.Radius, cd.Levels[bare*stride+cd.Radius]+1)},
		{"index level ends decrease", secCidxLevels, word(bare*stride+1, cd.Levels[bare*stride+cd.Radius]+1)},
		{"index counts decrease", secCidxCounts, word(bare*stride+cd.Radius, -1)},
		{"index negative path shape", secCidxShapes, word(0, -1)},
		{"index tied set descending", secCidxTied, word(1, cd.Tied[0])},
		{"index tied set of one member", secCidxTiedOff, word(1, 1)},
		{"index tied node past the graph", secCidxTied, word(int(cd.TiedOff[1])-1, int32(nodes))},
	}
}

// flatEdit is one edit of one section's payload.
type flatEdit struct {
	name string
	kind uint32
	edit func(p []byte) []byte
}

// TestFlatNewSectionCorruptionFailsLoudly: a resolver, candidate-column or
// candidate-index section that is CRC-valid and structurally wrong is ErrCorruptBundle at
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
	for _, c := range structurallyCorrupt(t, ing, lk.TokOff, multi) {
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
