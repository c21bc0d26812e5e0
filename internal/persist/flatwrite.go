package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"unsafe"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
)

// flatWriter accumulates sections and interns strings for a v4 bundle.
type flatWriter struct {
	sections []flatSection
	strs     []string
	strIdx   map[string]uint32
	strBytes int
}

// flatSection is one section of the file: its kind and its bytes.
type flatSection struct {
	kind    uint32
	payload []byte
}

func newFlatWriter() *flatWriter {
	return &flatWriter{strIdx: make(map[string]uint32)}
}

func (w *flatWriter) ref(s string) uint32 {
	if i, ok := w.strIdx[s]; ok {
		return i
	}
	i := uint32(len(w.strs))
	w.strs = append(w.strs, s)
	w.strIdx[s] = i
	w.strBytes += len(s)
	return i
}

func (w *flatWriter) add(kind uint32, payload []byte) {
	w.sections = append(w.sections, flatSection{kind: kind, payload: payload})
}

// Column encoders: everything is little-endian regardless of host, so the
// writer produces identical bytes on any platform.

// leColumn is a numeric column's section payload. On a little-endian host the
// column's own memory is those bytes, so the payload aliases it — the
// candidate pool is written from where MaterializeTopK filled it — and xs must
// not change while it is in use; elsewhere it is an encoded copy.
func leColumn[T flatNumber](xs []T) []byte {
	size := int(unsafe.Sizeof(T(0)))
	if hostLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), size*len(xs))
	}
	b := make([]byte, size*len(xs))
	for i := range xs {
		if size == 4 {
			binary.LittleEndian.PutUint32(b[4*i:], *(*uint32)(unsafe.Pointer(&xs[i])))
		} else {
			binary.LittleEndian.PutUint64(b[8*i:], *(*uint64)(unsafe.Pointer(&xs[i])))
		}
	}
	return b
}

// leRefs interns every string and encodes the reference column.
func (w *flatWriter) leRefs(ss []string) []byte {
	refs := make([]uint32, len(ss))
	for i, s := range ss {
		refs[i] = w.ref(s)
	}
	return leColumn(refs)
}

// SaveFlat writes the ingestion as a flat (v4) bundle: the zero-copy format
// OpenFlat serves directly from a memory mapping. The output is
// deterministic — identical ingestions produce identical bytes.
func SaveFlat(w io.Writer, ing *core.Ingestion) error {
	sections, err := encodeFlat(ing)
	if err != nil {
		return err
	}
	err = writeFlat(w, sections)
	// A flat-mapped ingestion's strings and columns alias its mapping, which a
	// finalizer unmaps once the ingestion is unreachable; the section payloads
	// were still reading them after the last use of ing.
	runtime.KeepAlive(ing)
	if err != nil {
		return fmt.Errorf("persist: writing flat bundle: %w", err)
	}
	return nil
}

func encodeFlat(ing *core.Ingestion) ([]flatSection, error) {
	fw := newFlatWriter()
	meta := flatMeta{shortcuts: int64(ing.ShortcutsAdded)}

	if err := flatGraphSections(fw, &meta, ing.Graph); err != nil {
		return nil, err
	}
	flatLookupSections(fw, ing)
	flatOntologySections(fw, ing)
	flatStoreSections(fw, ing.Store)
	flatMappingSections(fw, ing)
	flatFrequencySections(fw, &meta, ing.Frequencies)
	if ing.Materialized != nil {
		meta.flags |= metaHasMaterialized
		flatMaterializedSections(fw, &meta, ing.Materialized)
	}
	if ing.Candidates != nil {
		meta.flags |= metaHasCandidates
		flatCandidateSections(fw, &meta, ing.Candidates)
	}
	if len(ing.Sources) > 0 {
		meta.flags |= metaHasSources
		if err := flatSourceSection(fw, ing); err != nil {
			return nil, err
		}
	}

	// The string table is complete only now; emit it with META and sort the
	// sections into ascending kind order for a canonical file.
	strOff := make([]uint32, len(fw.strs)+1)
	blob := make([]byte, 0, fw.strBytes)
	for i, s := range fw.strs {
		strOff[i] = uint32(len(blob))
		blob = append(blob, s...)
	}
	strOff[len(fw.strs)] = uint32(len(blob))
	fw.add(secStrOff, leColumn(strOff))
	fw.add(secStr, blob)
	fw.add(secMeta, meta.encode())
	sort.Slice(fw.sections, func(i, j int) bool { return fw.sections[i].kind < fw.sections[j].kind })

	return fw.sections, nil
}

// writeFlat lays out header, 8-aligned sections, and the directory, and
// writes them in file order. Only the header and the directory are built
// here; the payloads go out from where they were encoded — on a little-endian
// host the columns' own memory — so a save holds no second copy of the bundle.
func writeFlat(w io.Writer, sections []flatSection) error {
	align := func(n int) int { return (n + 7) &^ 7 }
	dir := make([]byte, flatDirEntrySize*len(sections))
	pos := flatHeaderSize
	for i, s := range sections {
		pos = align(pos)
		e := dir[flatDirEntrySize*i:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], uint64(pos))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(e[24:], sectionCRC(s.payload))
		pos += len(s.payload)
	}
	dirOff := align(pos)

	head := make([]byte, flatHeaderSize)
	copy(head, flatMagic)
	binary.LittleEndian.PutUint32(head[4:], VersionFlat)
	binary.LittleEndian.PutUint32(head[8:], uint32(len(sections)))
	binary.LittleEndian.PutUint32(head[12:], sectionCRC(dir))
	binary.LittleEndian.PutUint64(head[16:], uint64(dirOff))
	binary.LittleEndian.PutUint64(head[24:], uint64(dirOff+len(dir)))

	// Every part starts 8-aligned: the gaps are zero bytes.
	var pad [8]byte
	pos = 0
	parts := append(append([]flatSection{{payload: head}}, sections...), flatSection{payload: dir})
	for _, s := range parts {
		for _, b := range [][]byte{pad[:align(pos)-pos], s.payload} {
			pos += len(b)
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// flatGraphSections emits the graph's frozen view column by column: the
// layout eks.FlatGraphData names is the layout of the file.
func flatGraphSections(fw *flatWriter, meta *flatMeta, g *eks.Graph) error {
	root, ok := g.Root()
	if !ok {
		return fmt.Errorf("persist: graph has no root")
	}
	meta.eksRoot = root

	d := g.FlatData()
	fw.add(secGraphIDs, leColumn(d.IDs))
	fw.add(secGraphNames, fw.leRefs(d.Names))
	fw.add(secGraphSynOff, leColumn(d.SynOff))
	fw.add(secGraphSyns, fw.leRefs(d.Syns))
	fw.add(secGraphUpOff, leColumn(d.UpOff))
	fw.add(secGraphUpTo, leColumn(d.UpTo))
	fw.add(secGraphUpDist, leColumn(d.UpDist))
	fw.add(secGraphUpNEnd, leColumn(d.UpNativeEnd))
	fw.add(secGraphDownOff, leColumn(d.DownOff))
	fw.add(secGraphDownTo, leColumn(d.DownTo))
	fw.add(secGraphDownDist, leColumn(d.DownDist))
	fw.add(secGraphDownNEnd, leColumn(d.DownNativeEnd))
	fw.add(secGraphNameKeys, fw.leRefs(d.NameKeys))
	fw.add(secGraphKeyOff, leColumn(d.KeyOff))
	fw.add(secGraphKeyIDs, leColumn(d.KeyIDs))
	return nil
}

// flatLookupSections emits the term resolver's columns: the one adopted with
// the ingestion, or one built now, so a server opening the bundle adopts
// rather than tokenises.
func flatLookupSections(fw *flatWriter, ing *core.Ingestion) {
	lk := ing.Lookup
	if lk == nil {
		lk = match.NewLookupService(ing.Graph)
	}
	d := lk.FlatData()
	fw.add(secLkTokens, fw.leRefs(d.Tokens))
	fw.add(secLkTokOff, leColumn(d.TokOff))
	fw.add(secLkTokKeys, leColumn(d.TokKeys))
	fw.add(secLkDesc, leColumn(d.Desc))
	fw.add(secLkKeySigs, leColumn(d.KeySigs))
}

func flatOntologySections(fw *flatWriter, ing *core.Ingestion) {
	o := ing.Ontology
	var conRefs []string
	for _, name := range o.ConceptNames() {
		c, _ := o.Concept(name)
		conRefs = append(conRefs, c.Name, c.Parent)
	}
	var relRefs []string
	for _, r := range o.Relationships() {
		relRefs = append(relRefs, r.Name, r.Domain, r.Range)
	}
	fw.add(secOntoConcepts, fw.leRefs(conRefs))
	fw.add(secOntoRels, fw.leRefs(relRefs))
}

// The store, the mappings and the offline tables are emitted like the graph:
// each type's FlatData columns are the sections of the file.

func flatStoreSections(fw *flatWriter, store *kb.Store) {
	d := store.FlatData()
	fw.add(secStoreIDs, leColumn(d.IDs))
	fw.add(secStoreConcepts, fw.leRefs(d.Concepts))
	fw.add(secStoreNames, fw.leRefs(d.Names))
	fw.add(secStoreLexKeys, fw.leRefs(d.LexKeys))
	fw.add(secStoreLexOff, leColumn(d.LexOff))
	fw.add(secStoreLexIDs, leColumn(d.LexIDs))
	fw.add(secStoreConKeys, fw.leRefs(d.ConceptKeys))
	fw.add(secStoreConOff, leColumn(d.ConceptOff))
	fw.add(secStoreConIDs, leColumn(d.ConceptIDs))
	fw.add(secStoreRelNames, fw.leRefs(d.RelNames))
	fw.add(secStoreASub, leColumn(d.ASub))
	fw.add(secStoreARel, leColumn(d.ARel))
	fw.add(secStoreAObj, leColumn(d.AObj))
	fw.add(secStorePerm, leColumn(d.ByObjPerm))
}

func flatMappingSections(fw *flatWriter, ing *core.Ingestion) {
	d := ing.FlatMappings()
	fw.add(secMapInst, leColumn(d.Instances))
	fw.add(secMapCon, leColumn(d.Concepts))
	fw.add(secMapFlag, leColumn(d.Flagged))
	fw.add(secMapIOff, leColumn(d.InstOff))
	fw.add(secMapIPool, leColumn(d.InstPool))
}

func flatFrequencySections(fw *flatWriter, meta *flatMeta, ft *core.FrequencyTable) {
	d := ft.FlatData()
	meta.freqRoot = d.Root
	meta.freqSmooth = d.Smoothing
	fw.add(secFreqLabels, fw.leRefs(d.Labels))
	fw.add(secFreqOff, leColumn(d.Off))
	fw.add(secFreqIDs, leColumn(d.IDs))
	fw.add(secFreqVals, leColumn(d.Vals))
	fw.add(secFreqAggIDs, leColumn(d.AggIDs))
	fw.add(secFreqAggVals, leColumn(d.AggVals))
}

func flatMaterializedSections(fw *flatWriter, meta *flatMeta, m *core.Materialized) {
	d := m.FlatData()
	meta.matRadius = uint32(d.Relax.Radius)
	meta.matMax = uint32(d.Relax.MaxRadius)
	if d.Relax.DynamicRadius {
		meta.matBits |= matBitDynamicRadius
	}
	if d.Relax.IncludeSelf {
		meta.matBits |= matBitIncludeSelf
	}
	fw.add(secMatCon, leColumn(d.Concepts))
	fw.add(secMatCtx, fw.leRefs(d.Ctxs))
	fw.add(secMatFlags, leColumn(d.Complete))
	fw.add(secMatCntOff, leColumn(d.CountOff))
	fw.add(secMatCnt, leColumn(d.Counts))
	fw.add(secMatCandOff, leColumn(d.CandOff))
	fw.add(secMatCandScores, leColumn(d.CandScores))
	fw.add(secMatCandSlots, leColumn(d.CandSlots))
}

// flatSourceSection emits the secondary named sources as one JSON-encoded
// section (see secSources). Deterministic: sources serialize in mount order
// and json.Marshal over the slice-and-scalar sourceDump is canonical.
func flatSourceSection(fw *flatWriter, ing *core.Ingestion) error {
	dumps := make([]sourceDump, 0, len(ing.Sources))
	for _, src := range ing.Sources {
		d, err := buildSourceDump(src)
		if err != nil {
			return err
		}
		dumps = append(dumps, d)
	}
	payload, err := json.Marshal(dumps)
	if err != nil {
		return fmt.Errorf("persist: encoding source section: %w", err)
	}
	fw.add(secSources, payload)
	return nil
}

func flatCandidateSections(fw *flatWriter, meta *flatMeta, x *core.CandidateIndex) {
	d := x.FlatData()
	meta.cidxRadius = uint32(d.Radius)
	meta.cidxSkipped = int64(d.Skipped)
	fw.add(secCidxCon, leColumn(d.Concepts))
	fw.add(secCidxOff, leColumn(d.Off))
	fw.add(secCidxHits, leColumn(d.Hits))
	fw.add(secCidxLevels, leColumn(d.Levels))
	fw.add(secCidxCounts, leColumn(d.Counts))
	fw.add(secCidxShapeOff, leColumn(d.ShapeOff))
	fw.add(secCidxShapes, leColumn(d.Shapes))
	fw.add(secCidxSetOff, leColumn(d.SetOff))
	fw.add(secCidxTiedOff, leColumn(d.TiedOff))
	fw.add(secCidxTied, leColumn(d.Tied))
}
