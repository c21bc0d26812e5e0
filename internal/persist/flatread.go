package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"unsafe"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/fault"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

// OpenFlat opens a flat (v4) bundle from disk zero-copy: the file is
// memory-mapped (where the platform supports it; otherwise read into one
// aligned buffer) and every column of the returned ingestion aliases that
// memory. The mapping stays valid for the lifetime of the returned
// Ingestion — its Backing field pins it — and is released by the runtime
// once the Ingestion becomes unreachable. Views handed out by the
// ingestion (instance spans, stored geometries, ...) must not outlive it.
func OpenFlat(path string) (*core.Ingestion, error) {
	if err := fault.At("persist.open").Inject(); err != nil {
		return nil, fmt.Errorf("persist: opening bundle %q: %w", path, err)
	}
	if err := fault.At("persist.read").Inject(); err != nil {
		return nil, fmt.Errorf("persist: reading bundle %q: %w", path, err)
	}
	data, backing, err := mapBundle(path)
	if err != nil {
		return nil, fmt.Errorf("persist: opening bundle: %w", err)
	}
	ing, err := openFlatBytes(data, backing)
	if err != nil {
		backing.release()
		return nil, fmt.Errorf("bundle %q: %w", path, err)
	}
	return ing, nil
}

// alignedBytes allocates an 8-byte-aligned buffer of n bytes, so the heap
// fallback satisfies the same alignment contract a page-aligned mapping
// does.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// flatDecoder resolves directory sections and the string table.
type flatDecoder struct {
	secs   map[uint32][]byte
	blob   []byte
	strOff []uint32
}

// openFlatBytes validates a flat bundle held in memory and assembles the
// ingestion over it. data must be 8-byte aligned (a page-aligned mapping or
// alignedBytes buffer); backing is attached to the result to pin the
// memory's lifetime.
func openFlatBytes(data []byte, backing core.SnapshotBacking) (*core.Ingestion, error) {
	if len(data) < flatHeaderSize {
		return nil, corruptf("flat v4", "truncated header (%d bytes)", len(data))
	}
	if string(data[:len(flatMagic)]) != flatMagic {
		return nil, corruptf("flat v4", "bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != VersionFlat {
		return nil, corruptf("flat v4", "bundle version %d, want %d", v, VersionFlat)
	}
	nSec := binary.LittleEndian.Uint32(data[8:])
	dirCRC := binary.LittleEndian.Uint32(data[12:])
	dirOff := binary.LittleEndian.Uint64(data[16:])
	fileSize := binary.LittleEndian.Uint64(data[24:])
	if fileSize != uint64(len(data)) {
		return nil, corruptf("flat v4", "header claims %d bytes, file has %d", fileSize, len(data))
	}
	if nSec == 0 || nSec > flatMaxSections {
		return nil, corruptf("flat v4", "implausible section count %d", nSec)
	}
	dirLen := uint64(nSec) * flatDirEntrySize
	if dirOff < flatHeaderSize || dirOff%8 != 0 || dirOff > fileSize || dirLen > fileSize-dirOff {
		return nil, corruptf("flat v4", "directory [%d,+%d) outside file of %d bytes", dirOff, dirLen, fileSize)
	}
	dir := data[dirOff : dirOff+dirLen]
	if got := sectionCRC(dir); got != dirCRC {
		return nil, corruptf("flat v4", "directory checksum mismatch (stored %08x, computed %08x)", dirCRC, got)
	}

	secs := make(map[uint32][]byte, nSec)
	for i := uint64(0); i < uint64(nSec); i++ {
		e := dir[i*flatDirEntrySize:]
		kind := binary.LittleEndian.Uint32(e[0:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		if off < flatHeaderSize || off%8 != 0 || off > uint64(len(data)) || length > uint64(len(data))-off || off+length > dirOff {
			return nil, corruptf("flat v4", "section %d at [%d,+%d) outside the section area", kind, off, length)
		}
		if _, dup := secs[kind]; dup {
			return nil, corruptf("flat v4", "duplicate section kind %d", kind)
		}
		if err := retiredFlatSection(kind); err != nil {
			return nil, err
		}
		payload := data[off : off+length]
		if got := sectionCRC(payload); got != crc {
			return nil, corruptf("flat v4", "section %d checksum mismatch (stored %08x, computed %08x)", kind, crc, got)
		}
		secs[kind] = payload
	}

	d := &flatDecoder{secs: secs}
	ing, err := d.restoreFlat(backing)
	if err != nil {
		return nil, err
	}
	return ing, nil
}

// sec returns a required section's payload.
func (d *flatDecoder) sec(kind uint32, what string) ([]byte, error) {
	b, ok := d.secs[kind]
	if !ok {
		return nil, corruptf("flat v4", "missing %s section (kind %d)", what, kind)
	}
	return b, nil
}

// initStrings decodes the interned string table.
func (d *flatDecoder) initStrings() error {
	blob, err := d.sec(secStr, "string blob")
	if err != nil {
		return err
	}
	offB, err := d.sec(secStrOff, "string offsets")
	if err != nil {
		return err
	}
	offs, err := viewColumn[uint32](offB, "string offsets")
	if err != nil {
		return err
	}
	if len(offs) == 0 {
		return corruptf("flat v4", "empty string offset table")
	}
	if offs[0] != 0 || int(offs[len(offs)-1]) != len(blob) {
		return corruptf("flat v4", "string offsets do not span the blob")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return corruptf("flat v4", "string offsets decrease at %d", i)
		}
	}
	d.blob, d.strOff = blob, offs
	return nil
}

// strings decodes one string-reference column into a []string whose
// entries alias the blob — string bytes are never copied.
func (d *flatDecoder) strings(kind uint32, what string) ([]string, error) {
	b, err := d.sec(kind, what)
	if err != nil {
		return nil, err
	}
	refs, err := viewColumn[uint32](b, what)
	if err != nil {
		return nil, err
	}
	nStr := uint32(len(d.strOff) - 1)
	out := make([]string, len(refs))
	for i, r := range refs {
		if r >= nStr {
			return nil, corruptf("flat v4", "%s string reference %d out of range (table has %d)", what, r, nStr)
		}
		lo, hi := d.strOff[r], d.strOff[r+1]
		if hi > lo {
			out[i] = unsafe.String(&d.blob[lo], int(hi-lo))
		}
	}
	return out, nil
}

// column returns a required section as a numeric column.
func column[T flatNumber](d *flatDecoder, kind uint32, what string) ([]T, error) {
	b, err := d.sec(kind, what)
	if err != nil {
		return nil, err
	}
	return viewColumn[T](b, what)
}

func (d *flatDecoder) conceptIDs(kind uint32, what string) ([]eks.ConceptID, error) {
	return column[eks.ConceptID](d, kind, what)
}

func (d *flatDecoder) instanceIDs(kind uint32, what string) ([]kb.InstanceID, error) {
	return column[kb.InstanceID](d, kind, what)
}

func (d *flatDecoder) int32s(kind uint32, what string) ([]int32, error) {
	return column[int32](d, kind, what)
}

func (d *flatDecoder) float64s(kind uint32, what string) ([]float64, error) {
	return column[float64](d, kind, what)
}

// restoreFlat assembles the components over the decoded sections. Structural
// validation lives in the component constructors; any failure there marks
// the bundle corrupt.
func (d *flatDecoder) restoreFlat(backing core.SnapshotBacking) (*core.Ingestion, error) {
	metaB, err := d.sec(secMeta, "meta")
	if err != nil {
		return nil, err
	}
	meta, err := decodeFlatMeta(metaB)
	if err != nil {
		return nil, err
	}
	if err := d.initStrings(); err != nil {
		return nil, err
	}

	onto, err := d.restoreOntology()
	if err != nil {
		return nil, err
	}
	g, err := d.restoreGraph(meta.eksRoot)
	if err != nil {
		return nil, err
	}
	store, err := d.restoreStore(onto)
	if err != nil {
		return nil, err
	}
	ft, err := d.restoreFrequencies(meta)
	if err != nil {
		return nil, err
	}

	maps, err := d.mappingData()
	if err != nil {
		return nil, err
	}
	ing, err := core.NewFlatIngestion(onto.Contexts(), g, store, onto, ft, int(meta.shortcuts), maps)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}

	if _, present := d.secs[secLkTokens]; present {
		if ing.Lookup, err = d.restoreLookup(g); err != nil {
			return nil, err
		}
	}
	if meta.flags&metaHasMaterialized != 0 {
		m, err := d.restoreMaterialized(meta, maps.Flagged)
		if err != nil {
			return nil, err
		}
		ing.Materialized = m
	} else if _, present := d.secs[secMatCon]; present {
		return nil, corruptf("flat v4", "materialized sections present but meta flag unset")
	}
	if meta.flags&metaHasCandidates != 0 {
		x, err := d.restoreCandidates(meta, maps.Flagged, g.FlatData().IDs)
		if err != nil {
			return nil, err
		}
		ing.Candidates = x
	} else if _, present := d.secs[secCidxCon]; present {
		return nil, corruptf("flat v4", "candidate index sections present but meta flag unset")
	}
	if meta.flags&metaHasSources != 0 {
		if err := d.restoreSourcesSection(ing); err != nil {
			return nil, err
		}
	} else if _, present := d.secs[secSources]; present {
		return nil, corruptf("flat v4", "source section present but meta flag unset")
	}

	ing.Backing = backing
	return ing, nil
}

// restoreSourcesSection decodes the JSON-encoded secondary sources (see
// secSources) and mounts them on the already-assembled primary ingestion.
// The secondaries restore onto the heap — only the primary's columns are
// zero-copy.
func (d *flatDecoder) restoreSourcesSection(ing *core.Ingestion) error {
	payload, err := d.sec(secSources, "sources")
	if err != nil {
		return err
	}
	var dumps []sourceDump
	if err := json.Unmarshal(payload, &dumps); err != nil {
		return corruptf("flat v4", "source section decode failed: %v", err)
	}
	if len(dumps) == 0 {
		return corruptf("flat v4", "source section is empty but meta flag set")
	}
	if err := restoreSources(dumps, ing); err != nil {
		return fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return nil
}

// restoreOntology rebuilds the (small) domain ontology on the heap — it is
// a handful of concepts and relationships, not worth a flat backing.
func (d *flatDecoder) restoreOntology() (*ontology.Ontology, error) {
	conRefs, err := d.strings(secOntoConcepts, "ontology concepts")
	if err != nil {
		return nil, err
	}
	if len(conRefs)%2 != 0 {
		return nil, corruptf("flat v4", "ontology concept section has %d refs, want pairs", len(conRefs))
	}
	relRefs, err := d.strings(secOntoRels, "ontology relationships")
	if err != nil {
		return nil, err
	}
	if len(relRefs)%3 != 0 {
		return nil, corruptf("flat v4", "ontology relationship section has %d refs, want triples", len(relRefs))
	}
	concepts := make([]ontology.Concept, 0, len(conRefs)/2)
	for i := 0; i < len(conRefs); i += 2 {
		concepts = append(concepts, ontology.Concept{Name: conRefs[i], Parent: conRefs[i+1]})
	}
	rels := make([]ontology.Relationship, 0, len(relRefs)/3)
	for i := 0; i < len(relRefs); i += 3 {
		rels = append(rels, ontology.Relationship{Name: relRefs[i], Domain: relRefs[i+1], Range: relRefs[i+2]})
	}
	onto, err := restoreOntology(concepts, rels)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return onto, nil
}

func (d *flatDecoder) restoreGraph(root eks.ConceptID) (*eks.Graph, error) {
	var gd eks.FlatGraphData
	var err error
	gd.Root = root
	if gd.IDs, err = d.conceptIDs(secGraphIDs, "graph ids"); err != nil {
		return nil, err
	}
	if gd.Names, err = d.strings(secGraphNames, "graph names"); err != nil {
		return nil, err
	}
	if gd.SynOff, err = d.int32s(secGraphSynOff, "graph synonym offsets"); err != nil {
		return nil, err
	}
	if gd.Syns, err = d.strings(secGraphSyns, "graph synonyms"); err != nil {
		return nil, err
	}
	if gd.UpOff, err = d.int32s(secGraphUpOff, "graph up offsets"); err != nil {
		return nil, err
	}
	if gd.UpTo, err = d.int32s(secGraphUpTo, "graph up targets"); err != nil {
		return nil, err
	}
	if gd.UpDist, err = d.int32s(secGraphUpDist, "graph up distances"); err != nil {
		return nil, err
	}
	if gd.UpNativeEnd, err = d.int32s(secGraphUpNEnd, "graph up boundaries"); err != nil {
		return nil, err
	}
	if gd.DownOff, err = d.int32s(secGraphDownOff, "graph down offsets"); err != nil {
		return nil, err
	}
	if gd.DownTo, err = d.int32s(secGraphDownTo, "graph down targets"); err != nil {
		return nil, err
	}
	if gd.DownDist, err = d.int32s(secGraphDownDist, "graph down distances"); err != nil {
		return nil, err
	}
	if gd.DownNativeEnd, err = d.int32s(secGraphDownNEnd, "graph down boundaries"); err != nil {
		return nil, err
	}
	if gd.NameKeys, err = d.strings(secGraphNameKeys, "graph name keys"); err != nil {
		return nil, err
	}
	if gd.KeyOff, err = d.int32s(secGraphKeyOff, "graph key offsets"); err != nil {
		return nil, err
	}
	if gd.KeyIDs, err = d.conceptIDs(secGraphKeyIDs, "graph key ids"); err != nil {
		return nil, err
	}
	g, err := eks.NewFlatGraph(gd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return g, nil
}

func (d *flatDecoder) restoreStore(onto *ontology.Ontology) (*kb.Store, error) {
	var sd kb.FlatStoreData
	var err error
	if sd.IDs, err = d.instanceIDs(secStoreIDs, "store ids"); err != nil {
		return nil, err
	}
	if sd.Concepts, err = d.strings(secStoreConcepts, "store concepts"); err != nil {
		return nil, err
	}
	if sd.Names, err = d.strings(secStoreNames, "store names"); err != nil {
		return nil, err
	}
	if sd.LexKeys, err = d.strings(secStoreLexKeys, "store lexicon keys"); err != nil {
		return nil, err
	}
	if sd.LexOff, err = d.int32s(secStoreLexOff, "store lexicon offsets"); err != nil {
		return nil, err
	}
	if sd.LexIDs, err = d.instanceIDs(secStoreLexIDs, "store lexicon ids"); err != nil {
		return nil, err
	}
	if sd.ConceptKeys, err = d.strings(secStoreConKeys, "store concept keys"); err != nil {
		return nil, err
	}
	if sd.ConceptOff, err = d.int32s(secStoreConOff, "store concept offsets"); err != nil {
		return nil, err
	}
	if sd.ConceptIDs, err = d.instanceIDs(secStoreConIDs, "store concept ids"); err != nil {
		return nil, err
	}
	if sd.RelNames, err = d.strings(secStoreRelNames, "store relationship names"); err != nil {
		return nil, err
	}
	if sd.ASub, err = d.instanceIDs(secStoreASub, "store assertion subjects"); err != nil {
		return nil, err
	}
	if sd.ARel, err = d.int32s(secStoreARel, "store assertion relationships"); err != nil {
		return nil, err
	}
	if sd.AObj, err = d.instanceIDs(secStoreAObj, "store assertion objects"); err != nil {
		return nil, err
	}
	if sd.ByObjPerm, err = d.int32s(secStorePerm, "store assertion permutation"); err != nil {
		return nil, err
	}
	store, err := kb.NewFlatStore(onto, sd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return store, nil
}

func (d *flatDecoder) restoreFrequencies(meta flatMeta) (*core.FrequencyTable, error) {
	fd := core.FlatFrequencyData{Root: meta.freqRoot, Smoothing: meta.freqSmooth}
	var err error
	if fd.Labels, err = d.strings(secFreqLabels, "frequency labels"); err != nil {
		return nil, err
	}
	if fd.Off, err = d.int32s(secFreqOff, "frequency offsets"); err != nil {
		return nil, err
	}
	if fd.IDs, err = d.conceptIDs(secFreqIDs, "frequency ids"); err != nil {
		return nil, err
	}
	if fd.Vals, err = d.float64s(secFreqVals, "frequency values"); err != nil {
		return nil, err
	}
	if fd.AggIDs, err = d.conceptIDs(secFreqAggIDs, "frequency aggregate ids"); err != nil {
		return nil, err
	}
	if fd.AggVals, err = d.float64s(secFreqAggVals, "frequency aggregate values"); err != nil {
		return nil, err
	}
	ft, err := core.OpenFlatFrequencyTable(fd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return ft, nil
}

func (d *flatDecoder) mappingData() (core.FlatMappingsData, error) {
	var md core.FlatMappingsData
	var err error
	if md.Instances, err = d.instanceIDs(secMapInst, "mapping instances"); err != nil {
		return md, err
	}
	if md.Concepts, err = d.conceptIDs(secMapCon, "mapping concepts"); err != nil {
		return md, err
	}
	if md.Flagged, err = d.conceptIDs(secMapFlag, "flagged concepts"); err != nil {
		return md, err
	}
	if md.InstOff, err = d.int32s(secMapIOff, "mapping instance offsets"); err != nil {
		return md, err
	}
	if md.InstPool, err = d.instanceIDs(secMapIPool, "mapping instance pool"); err != nil {
		return md, err
	}
	return md, nil
}

// restoreLookup adopts the term resolver's columns over the restored graph.
func (d *flatDecoder) restoreLookup(g *eks.Graph) (*match.LookupService, error) {
	var ld match.FlatLookupData
	var err error
	if ld.Tokens, err = d.strings(secLkTokens, "lookup tokens"); err != nil {
		return nil, err
	}
	if ld.TokOff, err = d.int32s(secLkTokOff, "lookup token offsets"); err != nil {
		return nil, err
	}
	if ld.TokKeys, err = d.int32s(secLkTokKeys, "lookup token keys"); err != nil {
		return nil, err
	}
	if ld.Desc, err = d.int32s(secLkDesc, "lookup descendant counts"); err != nil {
		return nil, err
	}
	if ld.KeySigs, err = column[uint64](d, secLkKeySigs, "lookup key signatures"); err != nil {
		return nil, err
	}
	lk, err := match.OpenFlatLookup(g, ld)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return lk, nil
}

func (d *flatDecoder) restoreMaterialized(meta flatMeta, flagged []eks.ConceptID) (*core.Materialized, error) {
	md := core.FlatMaterializedData{
		Relax: core.RelaxOptions{
			Radius:        int(meta.matRadius),
			MaxRadius:     int(meta.matMax),
			DynamicRadius: meta.matBits&matBitDynamicRadius != 0,
			IncludeSelf:   meta.matBits&matBitIncludeSelf != 0,
		},
	}
	var err error
	if md.Concepts, err = d.conceptIDs(secMatCon, "materialized concepts"); err != nil {
		return nil, err
	}
	if md.Ctxs, err = d.strings(secMatCtx, "materialized contexts"); err != nil {
		return nil, err
	}
	if md.Complete, err = d.int32s(secMatFlags, "materialized flags"); err != nil {
		return nil, err
	}
	if md.CountOff, err = d.int32s(secMatCntOff, "materialized count offsets"); err != nil {
		return nil, err
	}
	if md.Counts, err = d.int32s(secMatCnt, "materialized counts"); err != nil {
		return nil, err
	}
	if md.CandOff, err = d.int32s(secMatCandOff, "materialized candidate offsets"); err != nil {
		return nil, err
	}
	if md.CandScores, err = d.float64s(secMatCandScores, "materialized candidate scores"); err != nil {
		return nil, err
	}
	if md.CandSlots, err = column[uint32](d, secMatCandSlots, "materialized candidate slots"); err != nil {
		return nil, err
	}
	m, err := core.OpenFlatMaterialized(md, flagged)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return m, nil
}

// restoreCandidates adopts the candidate index over the flagged set and the
// graph's node ids its hits are positions in.
func (d *flatDecoder) restoreCandidates(meta flatMeta, flagged, nodes []eks.ConceptID) (*core.CandidateIndex, error) {
	cd := core.FlatCandidateIndexData{
		Radius:  int(meta.cidxRadius),
		Skipped: int(meta.cidxSkipped),
	}
	var err error
	if cd.Concepts, err = d.conceptIDs(secCidxCon, "candidate index concepts"); err != nil {
		return nil, err
	}
	for _, col := range []struct {
		to   *[]int32
		kind uint32
		what string
	}{
		{&cd.Off, secCidxOff, "candidate index hit offsets"},
		{&cd.Hits, secCidxHits, "candidate index hits"},
		{&cd.Levels, secCidxLevels, "candidate index level ends"},
		{&cd.Counts, secCidxCounts, "candidate index instance counts"},
		{&cd.ShapeOff, secCidxShapeOff, "candidate index shape offsets"},
		{&cd.Shapes, secCidxShapes, "candidate index shapes"},
		{&cd.SetOff, secCidxSetOff, "candidate index tied-set offsets"},
		{&cd.TiedOff, secCidxTiedOff, "candidate index tied-set boundaries"},
		{&cd.Tied, secCidxTied, "candidate index tied nodes"},
	} {
		if *col.to, err = d.int32s(col.kind, col.what); err != nil {
			return nil, err
		}
	}
	x, err := core.OpenFlatCandidateIndex(cd, flagged, nodes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
	}
	return x, nil
}
