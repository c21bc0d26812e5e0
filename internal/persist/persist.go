// Package persist serializes the output of the offline phase — the domain
// ontology, the instance store, the customized external knowledge source,
// the instance-to-concept mappings, and the per-context frequency table —
// so that Algorithm 1, "an offline process that is executed only once"
// (Section 5.1), really does run only once: production deployments save
// the ingestion after building it and load it at startup.
//
// Two formats, one sentence each:
//
//   - JSON v1 holds what Algorithm 1 decided — ontology, store, customized
//     graph, mappings, frequencies, named sources — in a form a person can
//     read and diff; written by Save.
//   - Flat v4 is what is served, and it alone carries what can be derived
//     from that — the materialized store, the candidate index, the term
//     resolver's columns: aligned, individually checksummed sections, every
//     one a numeric column (or the string table they index) laid out as the
//     read path traverses it and served from a memory mapping; written by
//     SaveFlat and opened by OpenFlat. See flat.go for the layout.
//
// Load auto-detects the format from the first bytes of the stream, and
// LoadFile routes flat bundles to the memory-mapping opener. Both formats
// are strictly validated on load (a corrupted or truncated bundle fails
// loudly rather than yielding a half-built system): v4 is protected by
// per-section checksums, and v1 carries a crc32 field computed over the rest
// of the document, so a torn or bit-flipped bundle of either format is
// rejected with an error wrapping ErrCorruptBundle — distinguishable from a
// missing file, which surfaces the fs.ErrNotExist open error. The forms this
// package used to read (retired.go) fail the same way, by name.
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/fault"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
)

// ErrCorruptBundle marks a bundle that exists but cannot be trusted —
// truncated, bit-flipped, checksum-mismatched, structurally invalid, or
// of an unknown format. The serving layer's reload handler checks
// errors.Is(err, ErrCorruptBundle) to tell "the pushed file is bad, keep
// the old generation" apart from "the file is missing".
var ErrCorruptBundle = errors.New("corrupt bundle")

// corruptf builds an ErrCorruptBundle error tagged with the detected
// format ("json v1", "flat v4", a retired "binary v2", or "unknown").
func corruptf(format, msg string, args ...any) error {
	return fmt.Errorf("persist: %w (%s): %s", ErrCorruptBundle, format, fmt.Sprintf(msg, args...))
}

// Version is the JSON bundle format version.
const Version = 1

// Bundle is the on-disk form of an ingestion.
type Bundle struct {
	Version int `json:"version"`
	// CRC32 is the IEEE checksum of the bundle's canonical JSON encoding
	// with this field zeroed (v1 only; v4 checksums each section in its
	// directory instead). It makes torn and bit-flipped v1 bundles fail
	// loudly: JSON truncated mid-document already fails to decode, and
	// this catches the remaining cases — a flipped value that still
	// parses, or a tear that lands on a value boundary.
	CRC32 uint32 `json:"crc32,omitempty"`

	OntologyConcepts      []ontology.Concept      `json:"ontologyConcepts"`
	OntologyRelationships []ontology.Relationship `json:"ontologyRelationships"`

	Instances  []kb.Instance  `json:"instances"`
	Assertions []kb.Assertion `json:"assertions"`

	EKSConcepts []eks.Concept `json:"eksConcepts"`
	EKSEdges    []edgeDump    `json:"eksEdges"`
	EKSRoot     eks.ConceptID `json:"eksRoot"`

	Mappings    []mappingDump          `json:"mappings"`
	Frequencies core.FrequencySnapshot `json:"frequencies"`
	Shortcuts   int                    `json:"shortcutsAdded"`

	// Sources carries the optional secondary named external knowledge
	// sources of a federated ingestion. Omitted for single-source bundles
	// (keeping their encodings byte-stable); bundles that predate the field
	// load as the single source named "primary".
	Sources []sourceDump `json:"sources,omitempty"`
}

type edgeDump struct {
	From     eks.ConceptID `json:"from"`
	To       eks.ConceptID `json:"to"`
	Dist     int           `json:"dist"`
	Shortcut bool          `json:"shortcut,omitempty"`
}

type mappingDump struct {
	Instance kb.InstanceID `json:"instance"`
	Concept  eks.ConceptID `json:"concept"`
}

// sourceDump is the serialized form of one secondary named source: its own
// customized graph, mappings onto the SHARED instance store, and frequency
// table. The store and ontology are not repeated — restore shares the
// primary's.
type sourceDump struct {
	Name        string                 `json:"name"`
	EKSConcepts []eks.Concept          `json:"eksConcepts"`
	EKSEdges    []edgeDump             `json:"eksEdges"`
	EKSRoot     eks.ConceptID          `json:"eksRoot"`
	Mappings    []mappingDump          `json:"mappings"`
	Frequencies core.FrequencySnapshot `json:"frequencies"`
	Shortcuts   int                    `json:"shortcutsAdded"`
}

// dumpEKSGraph serializes a graph into the concept/edge/root triple shared
// by the primary bundle fields and each sourceDump.
func dumpEKSGraph(g *eks.Graph) (concepts []eks.Concept, edges []edgeDump, root eks.ConceptID, err error) {
	root, ok := g.Root()
	if !ok {
		return nil, nil, 0, fmt.Errorf("persist: graph has no root")
	}
	for _, id := range g.ConceptIDs() {
		c, _ := g.Concept(id)
		concepts = append(concepts, c)
		for _, e := range g.UpEdges(id) {
			edges = append(edges, edgeDump{From: e.From, To: e.To, Dist: e.Dist, Shortcut: e.Shortcut})
		}
	}
	return concepts, edges, root, nil
}

// buildSourceDump serializes one mounted secondary source.
func buildSourceDump(src core.NamedSource) (sourceDump, error) {
	d := sourceDump{Name: src.Name, Shortcuts: src.Ing.ShortcutsAdded}
	var err error
	if d.EKSConcepts, d.EKSEdges, d.EKSRoot, err = dumpEKSGraph(src.Ing.Graph); err != nil {
		return d, fmt.Errorf("persist: source %q: %w", src.Name, err)
	}
	iids, cids := src.Ing.MappingPairs()
	for i, iid := range iids {
		d.Mappings = append(d.Mappings, mappingDump{Instance: iid, Concept: cids[i]})
	}
	d.Frequencies = src.Ing.Frequencies.Snapshot()
	return d, nil
}

// buildBundle assembles the serializable form of an ingestion.
func buildBundle(ing *core.Ingestion) (*Bundle, error) {
	b := &Bundle{Version: Version, Shortcuts: ing.ShortcutsAdded}

	for _, name := range ing.Ontology.ConceptNames() {
		c, _ := ing.Ontology.Concept(name)
		b.OntologyConcepts = append(b.OntologyConcepts, c)
	}
	b.OntologyRelationships = ing.Ontology.Relationships()

	b.Instances = ing.Store.AllInstances()
	b.Assertions = ing.Store.AllAssertions()

	var err error
	if b.EKSConcepts, b.EKSEdges, b.EKSRoot, err = dumpEKSGraph(ing.Graph); err != nil {
		return nil, err
	}

	iids, cids := ing.MappingPairs()
	for i, iid := range iids {
		b.Mappings = append(b.Mappings, mappingDump{Instance: iid, Concept: cids[i]})
	}

	b.Frequencies = ing.Frequencies.Snapshot()
	for _, src := range ing.Sources {
		sd, err := buildSourceDump(src)
		if err != nil {
			return nil, err
		}
		b.Sources = append(b.Sources, sd)
	}
	return b, nil
}

// ErrDerivedInJSON is Save's refusal of an ingestion that carries a
// materialized store or a candidate index: the document has no place for
// them, and dropping them would write a bundle that loads as a slower world.
var ErrDerivedInJSON = errors.New("persist: a JSON v1 bundle holds what ingestion decided, not what is derived from it (materialized store, candidate index); save those with -format flat")

// Save writes the ingestion as a JSON (v1) bundle, including the crc32
// integrity field Load verifies.
func Save(w io.Writer, ing *core.Ingestion) error {
	if ing.Materialized != nil || ing.Candidates != nil {
		return ErrDerivedInJSON
	}
	b, err := buildBundle(ing)
	if err != nil {
		return err
	}
	// Marshal once with CRC32 zeroed (omitted by omitempty) to fix the
	// canonical bytes the checksum covers, then again with it set.
	canonical, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("persist: encoding bundle: %w", err)
	}
	b.CRC32 = crc32.ChecksumIEEE(canonical)
	enc := json.NewEncoder(w)
	return enc.Encode(b)
}

// verifyJSONChecksum re-derives the canonical encoding of a decoded v1
// bundle and checks it against the stored crc32 field. Decode→encode is
// canonical here because Bundle holds only slices and scalars (no maps),
// so a mismatch means the file's values are not the ones Save wrote.
func verifyJSONChecksum(b *Bundle) error {
	want := b.CRC32
	b.CRC32 = 0
	canonical, err := json.Marshal(b)
	b.CRC32 = want
	if err != nil {
		return fmt.Errorf("persist: re-encoding bundle for checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(canonical); got != want {
		return corruptf("json v1", "checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return nil
}

// Load reads a bundle — JSON v1 or flat v4, auto-detected from the stream's
// first bytes — and reconstructs the ingestion. The returned ingestion is
// fully usable for the online phase: build a Similarity over ing.Frequencies
// and a Relaxer over it. A bundle that exists but cannot be decoded, fails
// its checksum, restores to an invalid structure, or is in a retired form
// yields an error wrapping ErrCorruptBundle.
//
// A flat bundle read through a stream is copied into one aligned heap
// buffer; LoadFile and OpenFlat serve it zero-copy from a memory mapping
// instead.
func Load(r io.Reader) (*core.Ingestion, error) {
	if err := fault.At("persist.read").Inject(); err != nil {
		return nil, fmt.Errorf("persist: reading bundle: %w", err)
	}
	br := bufio.NewReader(r)
	head, err := br.Peek(len(retiredBinaryMagic) + 1)
	if err != nil && len(head) == 0 {
		if err == io.EOF {
			return nil, corruptf("unknown", "empty bundle")
		}
		return nil, fmt.Errorf("persist: reading bundle: %w", err)
	}
	if bytes.HasPrefix(head, []byte(flatMagic)) {
		raw, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", corruptf("flat v4", "reading stream"), err)
		}
		buf := alignedBytes(len(raw))
		copy(buf, raw)
		return openFlatBytes(buf, &mapRef{size: int64(len(buf))})
	}
	if bytes.HasPrefix(head, []byte(retiredBinaryMagic)) {
		_, _, err := retiredBinary(head)
		return nil, err
	}
	if len(head) == 0 || (head[0] != '{' && head[0] != ' ' && head[0] != '\t' && head[0] != '\n' && head[0] != '\r') {
		// Neither the flat magic nor the start of a JSON object: the file
		// is not a bundle in any format we know.
		return nil, corruptf("unknown", "no flat magic and no JSON object at byte 0")
	}
	var doc v1Document
	if err := json.NewDecoder(br).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("json v1", "decode failed (truncated or malformed)"), err)
	}
	if err := doc.retiredJSONKeys.err(); err != nil {
		return nil, err
	}
	b := &doc.Bundle
	if b.Version != Version {
		return nil, corruptf("json v1", "bundle version %d, want %d", b.Version, Version)
	}
	if err := verifyJSONChecksum(b); err != nil {
		return nil, err
	}
	ing, err := restore(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", corruptf("json v1", "restore failed"), err)
	}
	return ing, nil
}

// LoadFile loads a bundle from disk — the hot-reload entry point: the
// serving layer points it at the (possibly replaced) bundle path and swaps
// in the result only when both Load and ValidateForServing pass. The
// format is detected from a small header read: flat (v4) bundles are
// routed to OpenFlat and served zero-copy from a memory mapping, everything
// else streams through Load. Errors carry the path; a corrupt file —
// including one whose header is too short to classify — wraps
// ErrCorruptBundle while a missing file wraps fs.ErrNotExist, so callers
// can react differently.
func LoadFile(path string) (*core.Ingestion, error) {
	if err := fault.At("persist.open").Inject(); err != nil {
		return nil, fmt.Errorf("persist: opening bundle %q: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: opening bundle: %w", err)
	}
	// Classify from the first bytes, then hand the still-open handle to the
	// right reader: mmap for flat, a rewound stream for the rest.
	head := make([]byte, len(flatMagic))
	n, rerr := io.ReadFull(f, head)
	if rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
		f.Close()
		return nil, fmt.Errorf("bundle %q: persist: reading bundle header: %w", path, rerr)
	}
	if bytes.Equal(head[:n], []byte(flatMagic)) {
		f.Close()
		return OpenFlat(path)
	}
	if n < len(flatMagic) && !looksLikeJSONStart(head[:n]) {
		// Too short to be any bundle: empty files and sub-magic fragments
		// are corrupt, not unknown formats.
		f.Close()
		return nil, fmt.Errorf("bundle %q: %w", path, corruptf("unknown", "truncated header (%d bytes)", n))
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("bundle %q: persist: rewinding bundle: %w", path, err)
	}
	ing, err := Load(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("persist: closing bundle: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("bundle %q: %w", path, err)
	}
	return ing, nil
}

// looksLikeJSONStart reports whether the first bytes could open a v1 JSON
// document (an object brace, possibly after whitespace).
func looksLikeJSONStart(head []byte) bool {
	for _, c := range head {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// ValidateForServing checks the invariants a bundle must satisfy before a
// live server swaps to it — beyond the structural validation restore
// already does. Load succeeds on any well-formed bundle; this rejects
// well-formed bundles that would serve nothing (a truncated ingestion, a
// world with no query-answerable concepts), so a bad push fails the reload
// instead of silently emptying production answers.
func ValidateForServing(ing *core.Ingestion) error {
	if ing == nil {
		return fmt.Errorf("persist: nil ingestion")
	}
	if ing.Graph == nil || ing.Graph.Len() == 0 {
		return fmt.Errorf("persist: bundle has an empty external knowledge source")
	}
	if _, ok := ing.Graph.Root(); !ok {
		return fmt.Errorf("persist: bundle graph has no root")
	}
	if ing.Store == nil || ing.Store.Len() == 0 {
		return fmt.Errorf("persist: bundle has no KB instances")
	}
	if ing.FlaggedCount() == 0 {
		return fmt.Errorf("persist: bundle has no flagged concepts — nothing is query-answerable")
	}
	if ing.Frequencies == nil {
		return fmt.Errorf("persist: bundle has no frequency table")
	}
	// Mounted secondary sources must each be servable on their own.
	if err := ing.ValidateSources(); err != nil {
		return err
	}
	return nil
}

// restoreOntology rebuilds a domain ontology from its serialized concepts
// and relationships, shared by the bundle decoders of both formats.
func restoreOntology(concepts []ontology.Concept, rels []ontology.Relationship) (*ontology.Ontology, error) {
	onto := ontology.New()
	// Concepts must be added parents-first: iterate until fixpoint (the
	// hierarchy is shallow, so two passes usually suffice).
	pending := append([]ontology.Concept{}, concepts...)
	for len(pending) > 0 {
		progressed := false
		var next []ontology.Concept
		for _, c := range pending {
			if c.Parent == "" || onto.HasConcept(c.Parent) {
				if err := onto.AddConcept(c); err != nil {
					return nil, fmt.Errorf("persist: ontology concept %q: %w", c.Name, err)
				}
				progressed = true
			} else {
				next = append(next, c)
			}
		}
		if !progressed {
			return nil, fmt.Errorf("persist: ontology hierarchy has dangling parents (%d concepts unplaced)", len(next))
		}
		pending = next
	}
	for _, rel := range rels {
		if err := onto.AddRelationship(rel); err != nil {
			return nil, fmt.Errorf("persist: relationship %s: %w", rel.Name, err)
		}
	}
	return onto, nil
}

// restore reconstructs and validates an ingestion from a decoded bundle.
func restore(b *Bundle) (*core.Ingestion, error) {
	onto, err := restoreOntology(b.OntologyConcepts, b.OntologyRelationships)
	if err != nil {
		return nil, err
	}

	store := kb.NewStoreSized(onto, len(b.Instances))
	for _, inst := range b.Instances {
		if err := store.AddInstance(inst); err != nil {
			return nil, fmt.Errorf("persist: instance %d: %w", inst.ID, err)
		}
	}
	for _, a := range b.Assertions {
		if err := store.AddAssertion(a); err != nil {
			return nil, fmt.Errorf("persist: assertion %v: %w", a, err)
		}
	}

	g, err := restoreEKSGraph(b.EKSConcepts, b.EKSEdges, b.EKSRoot)
	if err != nil {
		return nil, err
	}

	freqs, err := core.RestoreFrequencyTable(b.Frequencies)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}

	ing, err := core.NewFlatIngestion(onto.Contexts(), g, store, onto, freqs, b.Shortcuts, mappingColumns(b.Mappings))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := restoreSources(b.Sources, ing); err != nil {
		return nil, err
	}
	return ing, nil
}

// mappingColumns turns serialized (instance, concept) pairs into the mapping
// columns core.NewFlatIngestion validates.
func mappingColumns(dumps []mappingDump) core.FlatMappingsData {
	instances := make([]kb.InstanceID, len(dumps))
	concepts := make([]eks.ConceptID, len(dumps))
	for i, m := range dumps {
		instances[i], concepts[i] = m.Instance, m.Concept
	}
	return core.MappingsFromPairs(instances, concepts)
}

// restoreEKSGraph rebuilds a graph from its serialized concept/edge/root
// triple, shared by the primary restore and each secondary source.
func restoreEKSGraph(concepts []eks.Concept, edges []edgeDump, root eks.ConceptID) (*eks.Graph, error) {
	g := eks.NewSized(len(concepts))
	for _, c := range concepts {
		if err := g.AddConcept(c); err != nil {
			return nil, fmt.Errorf("persist: eks concept %d: %w", c.ID, err)
		}
	}
	for _, e := range edges {
		var err error
		if e.Shortcut {
			err = g.AddShortcutEdge(e.From, e.To, e.Dist)
		} else {
			err = g.AddSubsumption(e.From, e.To)
		}
		if err != nil {
			return nil, fmt.Errorf("persist: eks edge %d->%d: %w", e.From, e.To, err)
		}
	}
	if err := g.SetRoot(root); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("persist: restored graph invalid: %w", err)
	}
	return g, nil
}

// restoreSources rebuilds the serialized secondary sources onto an already
// restored primary ingestion: each gets its own graph, mappings and
// frequency table while sharing the primary's store and ontology. A no-op
// on single-source bundles.
func restoreSources(dumps []sourceDump, ing *core.Ingestion) error {
	for _, d := range dumps {
		src, err := restoreSource(d, ing)
		if err != nil {
			return err
		}
		ing.Sources = append(ing.Sources, src)
	}
	return ing.ValidateSources()
}

// restoreSource rebuilds one secondary source over the primary's shared
// store and ontology, validating its mappings against both.
func restoreSource(d sourceDump, primary *core.Ingestion) (core.NamedSource, error) {
	g, err := restoreEKSGraph(d.EKSConcepts, d.EKSEdges, d.EKSRoot)
	if err != nil {
		return core.NamedSource{}, fmt.Errorf("persist: source %q: %w", d.Name, err)
	}
	freqs, err := core.RestoreFrequencyTable(d.Frequencies)
	if err != nil {
		return core.NamedSource{}, fmt.Errorf("persist: source %q: %w", d.Name, err)
	}
	sing, err := core.NewFlatIngestion(primary.Ontology.Contexts(), g, primary.Store, primary.Ontology, freqs, d.Shortcuts, mappingColumns(d.Mappings))
	if err != nil {
		return core.NamedSource{}, fmt.Errorf("persist: source %q: %w", d.Name, err)
	}
	return core.NamedSource{Name: d.Name, Ing: sing}, nil
}
