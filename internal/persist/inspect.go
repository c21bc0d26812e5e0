package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"slices"
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
// whole-bundle verdict (every checksum the format carries); Sections lists
// the per-section breakdown where the format has sections (v4; v1 reports
// its single document).
type BundleInfo struct {
	Format    string // "json v1", "flat v4"; a retired stream "binary v2", "binary v3"
	Version   int
	SizeBytes int64
	CRCOK     bool
	Sections  []SectionInfo
	// Sources names the secondary sources a federated bundle carries, in
	// mount order; empty for classic single-source bundles.
	Sources []string
	// Store says how deep the materialized store of a flat bundle is; nil when
	// the bundle carries none or its matFlags / matCandOffsets sections fail
	// their checksums.
	Store *StoreDepth
}

// StoreDepth summarises a materialized store from its per-entry columns alone:
// how many (concept, context) entries it holds, the candidates they store in
// all, the deepest and the median entry, and how many entries are complete —
// hold their whole candidate set rather than a prefix cut at
// core.MaterializeOptions.MaxPerQuery.
type StoreDepth struct {
	Entries, Candidates, MaxDepth, MedianDepth, Complete int
}

// storeDepth reads a StoreDepth off the matFlags and matCandOffsets payloads;
// nil when they hold no entries (the sections are absent) or do not describe
// the same ones.
func storeDepth(flags, candOff []byte) *StoreDepth {
	complete, err := viewColumn[int32](flags, "matFlags")
	if err != nil || len(complete) == 0 {
		return nil
	}
	off, err := viewColumn[int32](candOff, "matCandOffsets")
	if err != nil || len(off) != len(complete)+1 {
		return nil
	}
	d := &StoreDepth{Entries: len(complete), Candidates: int(off[len(off)-1] - off[0])}
	depths := make([]int, d.Entries)
	for i := range depths {
		depths[i] = int(off[i+1] - off[i])
		if complete[i] != 0 {
			d.Complete++
		}
	}
	slices.Sort(depths)
	d.MaxDepth, d.MedianDepth = depths[len(depths)-1], depths[len(depths)/2]
	return d
}

// flatSectionName renders a v4 section kind for humans; unknown kinds (from
// a future writer) print as kind/<n>.
func flatSectionName(kind uint32) string {
	names := map[uint32]string{
		secMeta: "meta", secStrOff: "strOffsets", secStr: "strBlob",
		secGraphIDs: "graphIDs", secGraphNames: "graphNames",
		secGraphSynOff: "graphSynOffsets", secGraphSyns: "graphSynonyms",
		secGraphUpOff: "graphUpOffsets", secGraphUpTo: "graphUpTargets",
		secGraphUpDist: "graphUpDistances", secGraphUpNEnd: "graphUpNativeEnds",
		secGraphDownOff: "graphDownOffsets", secGraphDownTo: "graphDownTargets",
		secGraphDownDist: "graphDownDistances", secGraphDownNEnd: "graphDownNativeEnds",
		secGraphNameKeys: "graphNameKeys", secGraphKeyOff: "graphKeyOffsets",
		secGraphKeyIDs: "graphKeyIDs",
		secLkTokens:    "lookupTokens", secLkTokOff: "lookupTokenOffsets",
		secLkTokKeys: "lookupTokenKeys", secLkDesc: "lookupDescendantCounts",
		secLkKeySigs:    "lookupKeySignatures",
		secOntoConcepts: "ontologyConcepts", secOntoRels: "ontologyRelationships",
		secStoreIDs: "storeIDs", secStoreConcepts: "storeConcepts",
		secStoreNames: "storeNames", secStoreLexKeys: "storeLexiconKeys",
		secStoreLexOff: "storeLexiconOffsets", secStoreLexIDs: "storeLexiconIDs",
		secStoreConKeys: "storeConceptKeys", secStoreConOff: "storeConceptOffsets",
		secStoreConIDs: "storeConceptIDs", secStoreRelNames: "storeRelNames",
		secStoreASub: "storeAssertSubjects", secStoreARel: "storeAssertRels",
		secStoreAObj: "storeAssertObjects", secStorePerm: "storeAssertPerm",
		secMapInst: "mappingInstances", secMapCon: "mappingConcepts",
		secMapFlag: "flaggedConcepts", secMapIOff: "mappingInstOffsets",
		secMapIPool:   "mappingInstPool",
		secFreqLabels: "freqLabels", secFreqOff: "freqOffsets",
		secFreqIDs: "freqIDs", secFreqVals: "freqValues",
		secFreqAggIDs: "freqAggIDs", secFreqAggVals: "freqAggValues",
		secMatCon: "matConcepts", secMatCtx: "matContexts", secMatFlags: "matFlags",
		secMatCntOff: "matCountOffsets", secMatCnt: "matCounts",
		secMatCandOff:    "matCandOffsets",
		secMatCandScores: "matCandScores", secMatCandSlots: "matCandSlots",
		secCidxCon: "cidxConcepts", secCidxOff: "cidxHitOffsets",
		secCidxHits: "cidxHits", secCidxLevels: "cidxLevelEnds",
		secCidxCounts: "cidxInstanceCounts", secCidxShapeOff: "cidxShapeOffsets",
		secCidxShapes: "cidxShapes", secCidxSetOff: "cidxTiedSetOffsets",
		secCidxTiedOff: "cidxTiedSetBounds", secCidxTied: "cidxTiedNodes",
		secSources: "sources",
	}
	if n, ok := names[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind/%d", kind)
}

// InspectFile reads a bundle of any format and reports its structure and
// checksum status without building an ingestion. Unlike Load, a checksum
// mismatch is NOT an error here — it is the finding (CRCOK false, and per
// section for v4), so operators can inspect a suspect file. A file whose
// format cannot be identified at all fails; a file in a retired form gets
// both — what its header or directory says, and the error Load would give.
func InspectFile(path string) (*BundleInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading bundle: %w", err)
	}
	info := &BundleInfo{SizeBytes: int64(len(data))}
	switch {
	case bytes.HasPrefix(data, []byte(flatMagic)):
		return inspectFlat(data, info)
	case bytes.HasPrefix(data, []byte(retiredBinaryMagic)):
		var err error
		info.Format, info.Version, err = retiredBinary(data)
		return info, err
	case looksLikeJSONStart(data):
		return inspectJSON(data, info)
	}
	return nil, corruptf("unknown", "no recognizable bundle header")
}

func inspectJSON(data []byte, info *BundleInfo) (*BundleInfo, error) {
	info.Format = "json v1"
	var doc v1Document
	if err := json.Unmarshal(data, &doc); err != nil {
		// Undecodable JSON: identified as v1 by shape, but nothing inside it
		// can be trusted or reported.
		info.CRCOK = false
		return info, nil
	}
	info.Version = doc.Version
	if err := doc.retiredJSONKeys.err(); err != nil {
		// The checksum covered keys this reader drops; it says nothing.
		return info, err
	}
	info.CRCOK = verifyJSONChecksum(&doc.Bundle) == nil
	info.Sections = []SectionInfo{{Name: "document", Length: uint64(len(data)), CRCOK: info.CRCOK}}
	for _, s := range doc.Sources {
		info.Sources = append(info.Sources, s.Name)
	}
	return info, nil
}

func inspectFlat(data []byte, info *BundleInfo) (*BundleInfo, error) {
	info.Format = "flat v4"
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
	var matFlags, matCandOff []byte
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
			s.CRCOK = sectionCRC(payload) == crc
			switch {
			case !s.CRCOK:
				// Nothing is read out of a payload its checksum disowns.
			case s.Kind == secSources:
				var dumps []sourceDump
				if json.Unmarshal(payload, &dumps) == nil {
					for _, d := range dumps {
						info.Sources = append(info.Sources, d.Name)
					}
				}
			case s.Kind == secMatFlags:
				matFlags = payload
			case s.Kind == secMatCandOff:
				matCandOff = payload
			}
		}
		ok = ok && s.CRCOK
		info.Sections = append(info.Sections, s)
		if err := retiredFlatSection(s.Kind); err != nil {
			retired = err
		}
	}
	info.CRCOK = ok
	info.Store = storeDepth(matFlags, matCandOff)
	return info, retired
}
