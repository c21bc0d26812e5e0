package persist

import (
	"encoding/binary"
	"fmt"
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

// StoreDepth summarises a materialized store from its columns alone: how
// many (concept, context) entries it holds, and how many rankings answer them
// — one per head concept and evidence class, each stored once — the
// candidates those rankings store in all, the deepest and the median ranking,
// and how many rankings are complete — hold their whole candidate set rather
// than a prefix cut at core.MaterializeOptions.MaxPerQuery.
type StoreDepth struct {
	Entries, Rankings, Candidates, MaxDepth, MedianDepth, Complete int
}

// storeDepth reads a StoreDepth off the materialized family among a flat
// bundle's sections; nil when the bundle carries none, or one of the family's
// sections or the string table is not among them. It reads the spans' lengths
// off the offsets and slices no pool, so a hostile file's spans cannot fault
// it.
func storeDepth(secs map[uint32][]byte) *StoreDepth {
	d := &flatDecoder{secs: secs}
	var md core.FlatMaterializedData
	if d.initStrings() != nil || d.columns(materializedColumns(&md)) != nil ||
		len(md.Complete) == 0 || len(md.CandOff) != len(md.Complete)+1 {
		return nil
	}
	off := md.CandOff
	s := &StoreDepth{Entries: len(md.Concepts), Rankings: len(md.Complete), Candidates: int(off[len(off)-1] - off[0])}
	depths := make([]int, s.Rankings)
	for i := range depths {
		depths[i] = int(off[i+1] - off[i])
		if md.Complete[i] != 0 {
			s.Complete++
		}
	}
	slices.Sort(depths)
	s.MaxDepth, s.MedianDepth = depths[len(depths)-1], depths[len(depths)/2]
	return s
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
