package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

	"medrelax/internal/core"
)

// SectionInfo describes one section of an inspected bundle: its numeric
// kind, human-readable name, placement, and whether its stored checksum
// matches the payload.
type SectionInfo struct {
	Kind   uint32
	Name   string
	Offset uint64
	Length uint64
	CRCOK  bool
}

// BundleInfo is the result of InspectFile: enough to answer "what is this
// file and can I trust it" without restoring the ingestion. CRCOK is the
// whole-bundle verdict (the directory's and every section's checksum);
// Sections lists the per-section breakdown.
type BundleInfo struct {
	Format    string // "flat v4"; a retired form "json v1", "binary v2", "binary v3"
	Version   int
	SizeBytes int64
	CRCOK     bool
	Sections  []SectionInfo
	// Sources names the secondary sources a federated bundle carries, in
	// mount order; empty for classic single-source bundles.
	Sources []string
	// Store says how deep the materialized store of a flat bundle is; nil when
	// the bundle carries none or a section it is read from fails its checksum.
	Store *StoreDepth
}

// StoreDepth summarises a materialized store from its per-entry columns alone:
// how many (concept, context) entries it holds, the candidates they store in
// all, the deepest and the median entry, and how many entries are complete —
// hold their whole candidate set rather than a prefix cut at
// core.MaterializeOptions.MaxPerQuery. Repeated counts the entries whose
// counts, scores and slots are byte-equal to an earlier entry of the same
// concept — contexts of one evidence class — and RepeatedBytes the candidate
// bytes they hold, what storing one candidate span per class would save.
type StoreDepth struct {
	Entries, Candidates, MaxDepth, MedianDepth, Complete int
	Repeated, RepeatedBytes                              int
}

// storeDepth reads a StoreDepth off the materialized family among a flat
// bundle's sections; nil when the bundle carries none, or one of the family's
// sections or the string table is not among them.
func storeDepth(secs map[uint32][]byte) *StoreDepth {
	d := &flatDecoder{secs: secs}
	var md core.FlatMaterializedData
	if d.initStrings() != nil || d.columns(materializedColumns(&md)) != nil ||
		len(md.Complete) == 0 || len(md.CandOff) != len(md.Complete)+1 {
		return nil
	}
	off := md.CandOff
	s := &StoreDepth{Entries: len(md.Complete), Candidates: int(off[len(off)-1] - off[0])}
	depths := make([]int, s.Entries)
	for i := range depths {
		depths[i] = int(off[i+1] - off[i])
		if md.Complete[i] != 0 {
			s.Complete++
		}
	}
	slices.Sort(depths)
	s.MaxDepth, s.MedianDepth = depths[len(depths)-1], depths[len(depths)/2]
	s.Repeated, s.RepeatedBytes = repeatedEntries(&md)
	return s
}

// repeatedEntries counts the entries of a store that repeat an earlier entry
// of their concept byte for byte, and the candidate bytes (a score and a slot
// word each) they hold. Each entry is compared with the distinct entries of
// its concept before it. Columns whose spans would not slice, which only a
// hostile file has, count none.
func repeatedEntries(md *core.FlatMaterializedData) (entries, bytes int) {
	n := len(md.Complete)
	spans := func(off []int32, pool int) bool {
		return len(off) == n+1 && off[0] >= 0 && slices.IsSorted(off) && int(off[n]) <= pool
	}
	if len(md.Concepts) != n || len(md.CandScores) != len(md.CandSlots) ||
		!spans(md.CountOff, len(md.Counts)) || !spans(md.CandOff, len(md.CandSlots)) {
		return 0, 0
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var distinct []int
	for i := range md.Complete {
		if i == 0 || md.Concepts[i] != md.Concepts[i-1] {
			distinct = distinct[:0]
		}
		counts := md.Counts[md.CountOff[i]:md.CountOff[i+1]]
		c0, c1 := md.CandOff[i], md.CandOff[i+1]
		repeat := slices.ContainsFunc(distinct, func(j int) bool {
			d0, d1 := md.CandOff[j], md.CandOff[j+1]
			return slices.Equal(counts, md.Counts[md.CountOff[j]:md.CountOff[j+1]]) &&
				slices.Equal(md.CandSlots[c0:c1], md.CandSlots[d0:d1]) &&
				slices.EqualFunc(md.CandScores[c0:c1], md.CandScores[d0:d1], sameBits)
		})
		if !repeat {
			distinct = append(distinct, i)
			continue
		}
		entries++
		bytes += int(c1-c0) * (8 + 4)
	}
	return entries, bytes
}

// InspectFile reads a bundle and reports its structure and checksum status
// without building an ingestion. Unlike LoadFile, a checksum mismatch is NOT
// an error here — it is the finding (CRCOK false, per section), so operators
// can inspect a suspect file. A file whose form cannot be identified at all
// fails; a file in a retired form gets both — what its header or directory
// says, and the error LoadFile would give.
func InspectFile(path string) (*BundleInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading bundle: %w", err)
	}
	info := &BundleInfo{SizeBytes: int64(len(data))}
	info.Format, info.Version, err = classifyHead(data)
	switch {
	case err == nil:
		return inspectFlat(data, info)
	case info.Format == "unknown":
		return nil, err
	}
	return info, err
}

func inspectFlat(data []byte, info *BundleInfo) (*BundleInfo, error) {
	if len(data) < flatHeaderSize {
		info.CRCOK = false
		return info, nil
	}
	info.Version = int(binary.LittleEndian.Uint32(data[4:]))
	nSec := binary.LittleEndian.Uint32(data[8:])
	dirCRC := binary.LittleEndian.Uint32(data[12:])
	dirOff := binary.LittleEndian.Uint64(data[16:])
	fileSize := binary.LittleEndian.Uint64(data[24:])
	dirLen := uint64(nSec) * flatDirEntrySize
	if fileSize != uint64(len(data)) || nSec == 0 || nSec > flatMaxSections ||
		dirOff < flatHeaderSize || dirOff > uint64(len(data)) || dirLen > uint64(len(data))-dirOff {
		info.CRCOK = false
		return info, nil
	}
	dir := data[dirOff : dirOff+dirLen]
	ok := sectionCRC(dir) == dirCRC
	var retired error
	// Nothing is read out of a payload its checksum disowns, or one placed
	// where the reader would refuse it as misaligned.
	checked := make(map[uint32][]byte, nSec)
	for i := uint64(0); i < uint64(nSec); i++ {
		e := dir[i*flatDirEntrySize:]
		s := SectionInfo{
			Kind:   binary.LittleEndian.Uint32(e[0:]),
			Offset: binary.LittleEndian.Uint64(e[8:]),
			Length: binary.LittleEndian.Uint64(e[16:]),
		}
		s.Name = flatSectionName(s.Kind)
		crc := binary.LittleEndian.Uint32(e[24:])
		if s.Offset <= uint64(len(data)) && s.Length <= uint64(len(data))-s.Offset {
			payload := data[s.Offset : s.Offset+s.Length]
			if s.CRCOK = sectionCRC(payload) == crc; s.CRCOK && s.Offset%8 == 0 {
				checked[s.Kind] = payload
			}
		}
		ok = ok && s.CRCOK
		info.Sections = append(info.Sections, s)
		if err := retiredFlatSection(s.Kind); err != nil {
			retired = err
		}
	}
	info.CRCOK = ok
	d := &flatDecoder{secs: checked}
	var st flatSources
	if d.initStrings() == nil && d.columns(sourcesColumns(&st)) == nil {
		info.Sources = st.Names
	}
	info.Store = storeDepth(checked)
	return info, retired
}
