package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
)

// TestLoadRejectsTornBundles simulates every tear and bit-flip class a
// crashed or lying storage layer can produce and demands a typed
// ErrCorruptBundle for each: a torn bundle must never load as a
// smaller-but-plausible world. A torn JSON document is still the retired v1
// bundle, and is refused as that, never for a checksum.
func TestLoadRejectsTornBundles(t *testing.T) {
	binBundle, jsonBundle := saveFlatBytes(t, buildIngestion(t)), readFixture(t, "retired-v1.json")

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

		// The retired JSON v1 document, torn or flipped.
		{"json/truncated quarter", jsonBundle[:len(jsonBundle)/4]},
		{"json/truncated half", jsonBundle[:len(jsonBundle)/2]},
		{"json/truncated before closing brace", jsonBundle[:len(jsonBundle)-2]},
		{"json/bitflip payload middle", flip(jsonBundle, len(jsonBundle)/2)},

		{"empty", nil},
		{"garbage", []byte("this is not a bundle\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ing, err := loadBytes(tc.data)
			if err == nil {
				t.Fatalf("corrupt bundle loaded: %d concepts", ing.Graph.Len())
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("error is not ErrCorruptBundle: %v", err)
			}
			if strings.HasPrefix(tc.name, "json/") {
				assertRetired(t, "a torn JSON document", err, "json v1")
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
// set.
func structurallyCorrupt(t testing.TB, ing *core.Ingestion) []flatEdit {
	le32 := binary.LittleEndian.PutUint32
	flagged, nodes := ing.FlaggedCount(), ing.Graph.Len()

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
	// In the materialized store: second is the first entry of the second
	// concept, and rankings the number of ranking rows.
	md := ing.Materialized.FlatData()
	second := slices.IndexFunc(md.Concepts, func(c eks.ConceptID) bool { return c != md.Concepts[0] })
	rankings := len(md.Complete)
	if second < 0 || md.CountOff[1] == 0 {
		t.Fatalf("the materialized store lacks something to corrupt: second concept at %d", second)
	}
	// word sets the 32-bit word at a position of a column.
	word := func(at int, v int32) func(p []byte) []byte {
		return func(p []byte) []byte { le32(p[4*at:], uint32(v)); return p }
	}
	last := func(p []byte) []byte { return p[:len(p)-4] }
	return []flatEdit{
		{name: "string reference past the table", kind: secGraphNames, edit: func(p []byte) []byte { le32(p, ^uint32(0)); return p }, want: "graphNames"},
		{name: "candidate scores truncated", kind: secMatCandScores, edit: func(p []byte) []byte { return p[:len(p)-8] }},
		{name: "candidate slots truncated", kind: secMatCandSlots, edit: func(p []byte) []byte { return p[:len(p)-4] }},
		{name: "candidate slot past the flagged set", kind: secMatCandSlots, edit: func(p []byte) []byte { le32(p, uint32(flagged)<<8|1); return p }},
		{name: "candidate hops past the max radius", kind: secMatCandSlots, edit: func(p []byte) []byte { p[0] = 99; return p }},
		{name: "candidate rank order swapped", kind: secMatCandScores, edit: func(p []byte) []byte {
			var first [8]byte
			copy(first[:], p[:8])
			copy(p[:8], p[8:16])
			copy(p[8:16], first[:])
			return p
		}},
		{name: "ranking index past the rankings", kind: secMatRanking, edit: word(len(md.Ranking)-1, int32(rankings))},
		{name: "rankings out of first-use order", kind: secMatRanking, edit: word(0, 1)},
		{name: "ranking shared by two concepts", kind: secMatRanking, edit: word(second, md.Ranking[second-1])},
		{name: "ranking column truncated", kind: secMatRanking, edit: last},
		{name: "ranking flags truncated", kind: secMatFlags, edit: last},
		{name: "ranking count offsets truncated", kind: secMatCntOff, edit: last},
		{name: "ranking candidate offsets torn", kind: secMatCandOff, edit: func(p []byte) []byte { return p[:len(p)-2] }},
		{name: "ranking count span of the wrong length", kind: secMatCntOff, edit: word(1, md.CountOff[1]-1)},
		{name: "index hits not whole records", kind: secCidxHits, edit: last},
		{name: "index hit offsets torn", kind: secCidxOff, edit: last},
		{name: "index level ends truncated", kind: secCidxLevels, edit: last},
		{name: "index instance counts truncated", kind: secCidxCounts, edit: last},
		{name: "index shape offsets torn", kind: secCidxShapeOff, edit: last},
		{name: "index shapes not whole records", kind: secCidxShapes, edit: last},
		{name: "index tied-set offsets torn", kind: secCidxSetOff, edit: last},
		{name: "index tied-set boundaries truncated", kind: secCidxTiedOff, edit: last},
		{name: "index tied nodes truncated", kind: secCidxTied, edit: last},
		{name: "index slot past the flagged set", kind: secCidxHits, edit: word(sole, int32(flagged))},
		{name: "index LCS node past the graph", kind: secCidxHits, edit: word(sole+1, int32(nodes))},
		{name: "index shape past the concept's", kind: secCidxHits, edit: word(sole+2, int32(len(cd.Shapes)))},
		{name: "index tied set past the concept's", kind: secCidxHits, edit: word(tied+1, ^int32(len(cd.TiedOff)))},
		{name: "index hit at hop 0 of an unflagged concept", kind: secCidxLevels, edit: word(bare*stride, 1)},
		{name: "index level end past the span", kind: secCidxLevels, edit: word(bare*stride+cd.Radius, cd.Levels[bare*stride+cd.Radius]+1)},
		{name: "index level ends decrease", kind: secCidxLevels, edit: word(bare*stride+1, cd.Levels[bare*stride+cd.Radius]+1)},
		{name: "index counts decrease", kind: secCidxCounts, edit: word(bare*stride+cd.Radius, -1)},
		{name: "index negative path shape", kind: secCidxShapes, edit: word(0, -1)},
		{name: "index tied set descending", kind: secCidxTied, edit: word(1, cd.Tied[0])},
		{name: "index tied set of one member", kind: secCidxTiedOff, edit: word(1, 1)},
		{name: "index tied node past the graph", kind: secCidxTied, edit: word(int(cd.TiedOff[1])-1, int32(nodes))},
	}
}

// flatEdit is one edit of a bundle's sections: kind's payload rewritten by
// edit, when set; the meta flag bits unflag cleared; the sections drop left
// out. want, when set, is the section name the refusal must carry.
type flatEdit struct {
	name   string
	kind   uint32
	edit   func(p []byte) []byte
	unflag uint32
	drop   []uint32
	want   string
}

// familyEdits walks column-family tables: for every section, the bundle
// without it; for every section of a family a bundle may leave out, a bundle
// that leaves the family out but keeps that one section. Each must be refused
// by the section's name.
func familyEdits(families [][]flatColumn) []flatEdit {
	// What says a bundle carries an optional family: a meta flag.
	optional := map[uint32]uint32{secMatCon: metaHasMaterialized, secCidxCon: metaHasCandidates, secSrcNames: metaHasSources}
	var edits []flatEdit
	for _, family := range families {
		flag, ok := optional[family[0].kind]
		for _, c := range family {
			name := flatSectionName(c.kind)
			edits = append(edits, flatEdit{name: "missing " + name, drop: []uint32{c.kind}, want: name})
			if !ok || flag == 0 && c.kind == family[0].kind {
				continue
			}
			orphan := flatEdit{name: "orphaned " + name, unflag: flag, want: name}
			for _, other := range family {
				if other.kind != c.kind {
					orphan.drop = append(orphan.drop, other.kind)
				}
			}
			edits = append(edits, orphan)
		}
	}
	return edits
}

// TestFlatNewSectionCorruptionFailsLoudly: a candidate-column or
// candidate-index section that is CRC-valid and structurally wrong is ErrCorruptBundle at
// open, never a panic and never a bundle that answers differently; so is a
// bundle missing any column section, or holding one of a family it leaves out.
func TestFlatNewSectionCorruptionFailsLoudly(t *testing.T) {
	ing := buildSmallAccelIngestion(t)
	sections, err := encodeFlat(ing)
	if err != nil {
		t.Fatal(err)
	}
	if md := ing.Materialized.FlatData(); md.CandOff[1] < 2 || md.CandScores[0] == md.CandScores[1] {
		t.Fatal("fixture too small to corrupt meaningfully")
	}
	runFlatEdits(t, sections, append(structurallyCorrupt(t, ing), familyEdits(flatFamilies())...))
}

// runFlatEdits opens the sections as each edit leaves them, every checksum
// valid: each must be refused ErrCorruptBundle, by name where the edit says.
func runFlatEdits(t *testing.T, sections []flatSection, edits []flatEdit) {
	t.Helper()
	open := func(sections []flatSection) error {
		data := flatBytes(t, sections)
		_, err := openFlatBytes(data, &mapRef{size: int64(len(data))})
		return err
	}
	if err := open(sections); err != nil {
		t.Fatalf("the unedited sections do not open: %v", err)
	}
	payload := func(t *testing.T, sections []flatSection, kind uint32) *[]byte {
		i := slices.IndexFunc(sections, func(s flatSection) bool { return s.kind == kind })
		if i < 0 {
			t.Fatalf("the writer emitted no section %d", kind)
		}
		return &sections[i].payload
	}
	for _, c := range edits {
		t.Run(c.name, func(t *testing.T) {
			edited := slices.Clone(sections)
			if c.edit != nil {
				// The payload may be the ingestion's own memory: edit a copy.
				p := payload(t, edited, c.kind)
				*p = c.edit(bytes.Clone(*p))
			}
			if c.unflag != 0 {
				p := payload(t, edited, secMeta)
				meta, err := decodeFlatMeta(*p)
				if err != nil {
					t.Fatal(err)
				}
				meta.flags &^= c.unflag
				*p = meta.encode()
			}
			for _, kind := range c.drop {
				payload(t, edited, kind) // a row drops only what the writer emitted
			}
			edited = slices.DeleteFunc(edited, func(s flatSection) bool { return slices.Contains(c.drop, s.kind) })
			err := open(edited)
			if !errors.Is(err, ErrCorruptBundle) {
				t.Fatalf("opened with %v, want ErrCorruptBundle", err)
			}
			if c.want != "" && !slices.Contains(strings.Fields(err.Error()), c.want) {
				t.Fatalf("the refusal does not name %s: %v", c.want, err)
			}
		})
	}
}

// TestSectionErrorsKeepDirectoryOrder pins which error a bundle with two
// faults reports, now that section checksums are computed concurrently: the
// one a single pass over the directory meets first. Each case edits a saved
// bundle's directory or payloads and restamps the directory checksum.
func TestSectionErrorsKeepDirectoryOrder(t *testing.T) {
	saved := saveFlatBytes(t, buildIngestion(t))
	le := binary.LittleEndian
	dirOff := le.Uint64(saved[16:])
	nSec := int(le.Uint32(saved[8:]))
	entry := func(data []byte, i int) []byte {
		return data[dirOff+uint64(i)*flatDirEntrySize:][:flatDirEntrySize]
	}
	payload := func(data []byte, i int) []byte {
		e := entry(data, i)
		return data[le.Uint64(e[8:]):][:le.Uint64(e[16:])]
	}
	restamp := func(data []byte) {
		le.PutUint32(data[12:], crc32.ChecksumIEEE(data[dirOff:dirOff+uint64(nSec)*flatDirEntrySize]))
	}
	// first is the first non-empty section in directory order; largest the
	// largest, which a concurrent checksum finishes last.
	first, largest := -1, 0
	for i := 0; i < nSec; i++ {
		if n := len(payload(saved, i)); n > 0 && first < 0 {
			first = i
		}
		if len(payload(saved, i)) > len(payload(saved, largest)) {
			largest = i
		}
	}
	if first < 0 || largest <= first+1 {
		t.Fatalf("fixture: first non-empty section %d, largest %d", first, largest)
	}
	flip := func(data []byte, i int) string {
		p := payload(data, i)
		p[len(p)/2] ^= 0x40
		e := entry(data, i)
		return fmt.Sprintf("section %d checksum mismatch (stored %08x, computed %08x)", le.Uint32(e[0:]), le.Uint32(e[24:]), crc32.ChecksumIEEE(p))
	}
	cases := []struct {
		name string
		edit func(data []byte) (want string)
	}{
		{"two flipped sections name the first in directory order", func(data []byte) string {
			want := flip(data, first)
			flip(data, largest)
			return want
		}},
		{"a mismatch ahead of a retired kind is the mismatch", func(data []byte) string {
			want := flip(data, first)
			le.PutUint32(entry(data, largest)[0:], secMatCands)
			restamp(data)
			return want
		}},
		{"a section out of bounds ahead of a mismatch is the bounds error", func(data []byte) string {
			e := entry(data, first)
			le.PutUint64(e[8:], uint64(len(data))+8)
			restamp(data)
			flip(data, largest)
			return fmt.Sprintf("section %d at [%d,+%d) outside the section area", le.Uint32(e[0:]), uint64(len(data))+8, le.Uint64(e[16:]))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(saved)
			want := tc.edit(data)
			_, err := loadBytes(data)
			if !errors.Is(err, ErrCorruptBundle) {
				t.Fatalf("opened with %v, want ErrCorruptBundle", err)
			}
			if !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("error %q, want it to end %q", err, want)
			}
		})
	}
}
