package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	sums := make([]sectionSum, 0, nSec)
	var structural error
	for i := uint64(0); i < uint64(nSec); i++ {
		e := dir[i*flatDirEntrySize:]
		kind := binary.LittleEndian.Uint32(e[0:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		if off < flatHeaderSize || off%8 != 0 || off > uint64(len(data)) || length > uint64(len(data))-off || off+length > dirOff {
			structural = corruptf("flat v4", "section %d at [%d,+%d) outside the section area", kind, off, length)
			break
		}
		if _, dup := secs[kind]; dup {
			structural = corruptf("flat v4", "duplicate section kind %d", kind)
			break
		}
		if err := retiredFlatSection(kind); err != nil {
			structural = err
			break
		}
		payload := data[off : off+length]
		sums = append(sums, sectionSum{kind: kind, stored: crc, payload: payload})
		secs[kind] = payload
	}
	// A section's checksum is checked before anything later in the
	// directory, so a mismatch is reported ahead of a structural error that
	// follows it, as one pass in directory order would.
	if err := checkSectionCRCs(sums); err != nil {
		return nil, err
	}
	if structural != nil {
		return nil, structural
	}

	d := &flatDecoder{secs: secs}
	ing, err := d.restoreFlat(backing)
	if err != nil {
		return nil, err
	}
	return ing, nil
}

// sectionSum is one directory entry's payload and stored checksum, and the
// checksum computed over the payload.
type sectionSum struct {
	kind             uint32
	stored, computed uint32
	payload          []byte
}

// checkSectionCRCs checksums the sections on min(GOMAXPROCS, sections)
// goroutines, each taking the largest section left, and reports the first
// mismatch in directory order.
func checkSectionCRCs(sums []sectionSum) error {
	order := make([]int, len(sums))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(len(sums[b].payload), len(sums[a].payload)) })
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
			s := &sums[order[k]]
			s.computed = sectionCRC(s.payload)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(sums)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, s := range sums {
		if s.computed != s.stored {
			return corruptf("flat v4", "section %d checksum mismatch (stored %08x, computed %08x)", s.kind, s.stored, s.computed)
		}
	}
	return nil
}

// sec returns a required section's payload.
func (d *flatDecoder) sec(kind uint32) ([]byte, error) {
	b, ok := d.secs[kind]
	if !ok {
		return nil, corruptf("flat v4", "missing %s section (kind %d)", flatSectionName(kind), kind)
	}
	return b, nil
}

// initStrings decodes the interned string table.
func (d *flatDecoder) initStrings() error {
	blob, err := d.sec(secStr)
	if err != nil {
		return err
	}
	offs, err := column[uint32](d, secStrOff)
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
func (d *flatDecoder) strings(kind uint32) ([]string, error) {
	refs, err := column[uint32](d, kind)
	if err != nil {
		return nil, err
	}
	nStr := uint32(len(d.strOff) - 1)
	out := make([]string, len(refs))
	for i, r := range refs {
		if r >= nStr {
			return nil, corruptf("flat v4", "%s string reference %d out of range (table has %d)", flatSectionName(kind), r, nStr)
		}
		lo, hi := d.strOff[r], d.strOff[r+1]
		if hi > lo {
			out[i] = unsafe.String(&d.blob[lo], int(hi-lo))
		}
	}
	return out, nil
}

// column returns a required section as a numeric column.
func column[T flatNumber](d *flatDecoder, kind uint32) ([]T, error) {
	b, err := d.sec(kind)
	if err != nil {
		return nil, err
	}
	return viewColumn[T](b, flatSectionName(kind))
}

// restoreFlat assembles the components over the decoded sections. Structural
// validation lives in the component constructors; any failure there marks
// the bundle corrupt.
func (d *flatDecoder) restoreFlat(backing core.SnapshotBacking) (*core.Ingestion, error) {
	metaB, err := d.sec(secMeta)
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
	var sd kb.FlatStoreData
	if err := d.columns(storeColumns(&sd)); err != nil {
		return nil, err
	}
	store, err := kb.NewFlatStore(onto, sd)
	if err != nil {
		return nil, restoreFailed(err)
	}
	ing, err := d.openSource(0, eks.FlatGraphData{Root: meta.eksRoot},
		core.FlatFrequencyData{Root: meta.freqRoot, Smoothing: meta.freqSmooth}, meta.shortcuts, store, onto)
	if err != nil {
		return nil, err
	}
	flagged := ing.FlatMappings().Flagged

	md := core.FlatMaterializedData{Relax: core.RelaxOptions{
		Radius:        int(meta.matRadius),
		MaxRadius:     int(meta.matMax),
		DynamicRadius: meta.matBits&matBitDynamicRadius != 0,
		IncludeSelf:   meta.matBits&matBitIncludeSelf != 0,
	}}
	hasMat := meta.flags&metaHasMaterialized != 0
	if err := d.optionalColumns(materializedColumns(&md), hasMat, "the meta materialized flag"); err != nil {
		return nil, err
	}
	if hasMat {
		if ing.Materialized, err = core.OpenFlatMaterialized(md, flagged); err != nil {
			return nil, restoreFailed(err)
		}
	}
	// The index's hits name flagged slots and graph nodes.
	cd := core.FlatCandidateIndexData{Radius: int(meta.cidxRadius), Skipped: int(meta.cidxSkipped)}
	hasIndex := meta.flags&metaHasCandidates != 0
	if err := d.optionalColumns(candidateColumns(&cd), hasIndex, "the meta candidate-index flag"); err != nil {
		return nil, err
	}
	if hasIndex {
		if ing.Candidates, err = core.OpenFlatCandidateIndex(cd, flagged, ing.Graph.FlatData().IDs); err != nil {
			return nil, restoreFailed(err)
		}
	}
	ing.Backing = backing
	if err := d.restoreSources(ing, meta.flags&metaHasSources != 0); err != nil {
		return nil, err
	}
	return ing, nil
}

// openSource opens the graph, resolver, mapping and frequency families of the
// source at a kind base over a store and ontology: the primary at base 0, and
// each secondary at its own base over the primary's store and ontology. gd and
// fd come with the scalars META or the sources table holds for the source, and
// the columns complete them. The resolver has no flag: a source carries it
// when it carries the family's first section, and writers before it left the
// family out.
func (d *flatDecoder) openSource(base uint32, gd eks.FlatGraphData, fd core.FlatFrequencyData, shortcuts int64,
	store *kb.Store, onto *ontology.Ontology) (*core.Ingestion, error) {
	var ld match.FlatLookupData
	var maps core.FlatMappingsData
	for _, family := range [][]flatColumn{
		atSource(base, graphColumns(&gd)), atSource(base, mappingsColumns(&maps)), atSource(base, frequencyColumns(&fd)),
	} {
		if err := d.columns(family); err != nil {
			return nil, err
		}
	}
	lookup := atSource(base, lookupColumns(&ld))
	_, hasLookup := d.secs[lookup[0].kind]
	if err := d.optionalColumns(lookup, hasLookup, flatSectionName(lookup[0].kind)); err != nil {
		return nil, err
	}
	g, err := eks.NewFlatGraph(gd)
	if err != nil {
		return nil, restoreFailed(err)
	}
	var lk *match.LookupService
	if hasLookup {
		if lk, err = match.OpenFlatLookup(g, ld); err != nil {
			return nil, restoreFailed(err)
		}
	}
	ft, err := core.OpenFlatFrequencyTable(fd)
	if err != nil {
		return nil, restoreFailed(err)
	}
	ing, err := core.NewFlatIngestion(onto.Contexts(), g, store, onto, ft, int(shortcuts), maps)
	if err != nil {
		return nil, restoreFailed(err)
	}
	ing.Lookup = lk
	return ing, nil
}

// restoreSources mounts the secondary sources the sources table lists on the
// opened primary. Each is mapped like the primary, over its store, ontology
// and backing, so it lives exactly as long as the primary does. A section at
// the base of a source the table does not list is refused by name.
func (d *flatDecoder) restoreSources(ing *core.Ingestion, has bool) error {
	var st flatSources
	if err := d.optionalColumns(sourcesColumns(&st), has, "the meta sources flag"); err != nil {
		return err
	}
	n := len(st.Names)
	if has && n == 0 {
		return corruptf("flat v4", "the sources table is empty but the meta sources flag is set")
	}
	if len(st.Roots) != n || len(st.Shortcuts) != n || len(st.FreqRoots) != n || len(st.Smoothing) != n {
		return corruptf("flat v4", "the sources table's columns disagree on its %d rows", n)
	}
	stray := uint32(0)
	for kind := range d.secs {
		if sourceOf(kind) > n && (stray == 0 || kind < stray) {
			stray = kind
		}
	}
	if stray != 0 {
		return corruptf("flat v4", "%s section present without a row in the sources table", flatSectionName(stray))
	}
	for i, name := range st.Names {
		src, err := d.openSource(sourceBase(i), eks.FlatGraphData{Root: st.Roots[i]},
			core.FlatFrequencyData{Root: st.FreqRoots[i], Smoothing: st.Smoothing[i]}, st.Shortcuts[i], ing.Store, ing.Ontology)
		if err != nil {
			return fmt.Errorf("source %q: %w", name, err)
		}
		src.Backing = ing.Backing
		ing.Sources = append(ing.Sources, core.NamedSource{Name: name, Ing: src})
	}
	if err := ing.ValidateSources(); err != nil {
		return restoreFailed(err)
	}
	return nil
}

// restoreFailed is the error a component constructor's refusal becomes.
func restoreFailed(err error) error {
	return fmt.Errorf("%w: %v", corruptf("flat v4", "restore failed"), err)
}

// restoreOntology rebuilds the (small) domain ontology on the heap — it is
// a handful of concepts and relationships, not worth a flat backing.
func (d *flatDecoder) restoreOntology() (*ontology.Ontology, error) {
	conRefs, err := d.strings(secOntoConcepts)
	if err != nil {
		return nil, err
	}
	if len(conRefs)%2 != 0 {
		return nil, corruptf("flat v4", "ontology concept section has %d refs, want pairs", len(conRefs))
	}
	relRefs, err := d.strings(secOntoRels)
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
		return nil, restoreFailed(err)
	}
	return onto, nil
}
