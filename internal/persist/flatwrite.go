package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"unsafe"

	"medrelax/internal/core"
	"medrelax/internal/strtab"
)

// flatWriter accumulates sections and interns strings for a v4 bundle.
type flatWriter struct {
	sections []flatSection
	strs     strtab.Builder
}

// flatSection is one section of the file: its kind and its bytes.
type flatSection struct {
	kind    uint32
	payload []byte
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

// leRefs interns every string of a column into the bundle's string table and
// encodes the reference column.
func (w *flatWriter) leRefs(col strtab.Column) []byte {
	refs := make([]uint32, col.Len())
	for i := range refs {
		refs[i] = w.strs.Ref(col.At(i))
	}
	return leColumn(refs)
}

// SaveFlat writes the ingestion as a flat (v4) bundle: the zero-copy format
// LoadFile serves directly from a memory mapping. The output is
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
	root, ok := ing.Graph.Root()
	if !ok {
		return nil, fmt.Errorf("persist: graph has no root")
	}
	fw := &flatWriter{}
	fd := ing.Frequencies.FlatData()
	meta := flatMeta{eksRoot: root, shortcuts: int64(ing.ShortcutsAdded), freqRoot: fd.Root, freqSmooth: fd.Smoothing}
	// Sections go out in kind order, the ontology among the families: the
	// string table lists strings in the order they are first met.
	graph, mappings, freqs := sourceFamilies(0, ing)
	fw.addColumns(graph)
	flatOntologySections(fw, ing)
	sd := ing.Store.FlatData()
	fw.addColumns(storeColumns(&sd))
	fw.addColumns(mappings)
	fw.addColumns(freqs)
	if ing.Materialized != nil {
		md := ing.Materialized.FlatData()
		meta.flags |= metaHasMaterialized
		meta.matRadius, meta.matMax = uint32(md.Relax.Radius), uint32(md.Relax.MaxRadius)
		if md.Relax.DynamicRadius {
			meta.matBits |= matBitDynamicRadius
		}
		if md.Relax.IncludeSelf {
			meta.matBits |= matBitIncludeSelf
		}
		fw.addColumns(materializedColumns(&md))
	}
	if ing.Candidates != nil {
		cd := ing.Candidates.FlatData()
		meta.flags |= metaHasCandidates
		meta.cidxRadius, meta.cidxSkipped = uint32(cd.Radius), int64(cd.Skipped)
		fw.addColumns(candidateColumns(&cd))
	}
	if len(ing.Sources) > 0 {
		meta.flags |= metaHasSources
		var st flatSources
		names := make([]string, len(ing.Sources))
		for i, src := range ing.Sources {
			root, ok := src.Ing.Graph.Root()
			if !ok {
				return nil, fmt.Errorf("persist: source %q: graph has no root", src.Name)
			}
			fd := src.Ing.Frequencies.FlatData()
			names[i] = src.Name
			st.Roots = append(st.Roots, root)
			st.Shortcuts = append(st.Shortcuts, int64(src.Ing.ShortcutsAdded))
			st.FreqRoots = append(st.FreqRoots, fd.Root)
			st.Smoothing = append(st.Smoothing, fd.Smoothing)
			graph, mappings, freqs := sourceFamilies(sourceBase(i), src.Ing)
			for _, family := range [][]flatColumn{graph, mappings, freqs} {
				fw.addColumns(family)
			}
		}
		st.Names = strtab.Pack(names)
		fw.addColumns(sourcesColumns(&st))
	}

	// The string table is complete only now; emit it with META and sort the
	// sections into ascending kind order for a canonical file.
	strOff, blob := fw.strs.Table()
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
	fw.add(secOntoConcepts, fw.leRefs(strtab.Pack(conRefs)))
	fw.add(secOntoRels, fw.leRefs(strtab.Pack(relRefs)))
}

// sourceFamilies is a source's graph, mapping and frequency families at its
// kind base.
func sourceFamilies(base uint32, ing *core.Ingestion) (graph, mappings, freqs []flatColumn) {
	gd, maps, fd := ing.Graph.FlatData(), ing.FlatMappings(), ing.Frequencies.FlatData()
	return atSource(base, graphColumns(&gd)), atSource(base, mappingsColumns(&maps)), atSource(base, frequencyColumns(&fd))
}
