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
	// Frequencies says what the primary frequency table of a flat bundle
	// stores; nil when a section it is read from is missing or fails its
	// checksum.
	Frequencies *FrequencyShape
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

// FrequencyShape summarises a frequency table from its columns alone: its
// labels, the (concept, value) entries its label spans store, the entries
// of its aggregate, and how many stored values of either are zero. The
// writer stores no zero, so Zeros > 0 marks a table whose spans cover every
// concept, as every table did before the spans kept only corpus evidence.
type FrequencyShape struct {
	Labels, Entries, Aggregates, Zeros int
}

// frequencyShape reads a FrequencyShape off the primary frequency family
// among a flat bundle's sections; nil when one of them, or the string table,
// is not among them. It reads the columns' lengths and values and slices no
// pool by an offset, so a hostile file's spans cannot fault it.
func frequencyShape(secs map[uint32][]byte) *FrequencyShape {
	d := &flatDecoder{secs: secs}
	var fd core.FlatFrequencyData
	if d.initStrings() != nil || d.columns(frequencyColumns(&fd)) != nil {
		return nil
	}
	s := &FrequencyShape{Labels: fd.Labels.Len(), Entries: len(fd.IDs), Aggregates: len(fd.AggIDs)}
	for _, vals := range [][]float64{fd.Vals, fd.AggVals} {
		for _, v := range vals {
			if v == 0 {
				s.Zeros++
			}
		}
	}
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
	return inspectBytes(data)
}

// inspectBytes is InspectFile over bytes in memory. A flat bundle's header or
// directory that does not decode leaves CRCOK false and no sections.
func inspectBytes(data []byte) (*BundleInfo, error) {
	info := &BundleInfo{SizeBytes: int64(len(data))}
	var err error
	if info.Format, info.Version, err = classifyHead(data); err != nil {
		if info.Format == "unknown" {
			return nil, err
		}
		return info, err
	}
	if len(data) >= flatHeaderSize {
		info.Version = int(binary.LittleEndian.Uint32(data[4:]))
	}
	entries, err := readFlatDirectory(data)
	info.CRCOK = err == nil
	var retired error
	// Nothing is read out of a payload its checksum disowns, or one placed
	// where the reader would refuse it.
	checked := make(map[uint32][]byte, len(entries))
	for _, e := range entries {
		s := SectionInfo{Kind: e.kind, Name: flatSectionName(e.kind), Offset: e.off, Length: e.length,
			CRCOK: e.placed && sectionCRC(e.payload) == e.crc}
		if s.CRCOK {
			checked[e.kind] = e.payload
		}
		info.CRCOK = info.CRCOK && s.CRCOK
		info.Sections = append(info.Sections, s)
		if err := retiredFlatSection(e.kind); err != nil {
			retired = err
		}
	}
	d := &flatDecoder{secs: checked}
	var st flatSources
	if d.initStrings() == nil && d.columns(sourcesColumns(&st)) == nil {
		info.Sources = st.Names.Strings()
	}
	// A source's resolver is looked for only where the directory can be
	// trusted to list every section.
	for i := 0; info.CRCOK && retired == nil && i <= len(info.Sources); i++ {
		retired = retiredResolver(uint32(i)*sourceKindStride, checked)
	}
	info.Store = storeDepth(checked)
	info.Frequencies = frequencyShape(checked)
	return info, retired
}
