// Package persist serializes the output of the offline phase — the domain
// ontology, the instance store, the customized external knowledge source,
// the instance-to-concept mappings, the per-context frequency table, and
// what is derived from them (the materialized store, the candidate index)
// — so that Algorithm 1, "an offline process
// that is executed only once" (Section 5.1), really does run only once:
// production deployments save the ingestion after building it and load it at
// startup.
//
// One format: the flat (v4) bundle, aligned and individually checksummed
// sections, every one a numeric column (or the string table they index) laid
// out as the read path traverses it and served from a memory mapping;
// written by SaveFlat (SaveFileAtomic publishes it crash-safely), opened by
// LoadFile. A federated ingestion's secondary sources ride in
// the same file as column families of their own. See flat.go for the layout.
//
// A bundle is strictly validated on open (a corrupted or truncated bundle
// fails loudly rather than yielding a half-built system): a torn or
// bit-flipped file fails a checksum and is rejected with an error wrapping
// ErrCorruptBundle — distinguishable from a missing file, which surfaces the
// fs.ErrNotExist open error. The forms this package used to read — the JSON
// v1 document, the binary stream, and flat bundles holding retired
// sections — fail the same way, by name (retired.go): a bundle in one of them
// is rebuilt with medrelax -save, not converted.
package persist

import (
	"errors"
	"fmt"

	"medrelax/internal/core"
	"medrelax/internal/fault"
	"medrelax/internal/ontology"
)

// ErrCorruptBundle marks a bundle that exists but cannot be trusted —
// truncated, bit-flipped, checksum-mismatched, structurally invalid, in a
// retired form, or of an unknown format. The serving layer's reload handler
// checks errors.Is(err, ErrCorruptBundle) to tell "the pushed file is bad,
// keep the old generation" apart from "the file is missing".
var ErrCorruptBundle = errors.New("corrupt bundle")

// corruptf builds an ErrCorruptBundle error tagged with the detected
// format ("flat v4", a retired "json v1" or "binary v2", or "unknown").
func corruptf(format, msg string, args ...any) error {
	return fmt.Errorf("persist: %w (%s): %s", ErrCorruptBundle, format, fmt.Sprintf(msg, args...))
}

// LoadFile loads a bundle from disk — the hot-reload entry point: the
// serving layer points it at the (possibly replaced) bundle path and swaps
// in the result only when both LoadFile and ValidateForServing pass. The
// file is mapped once (where the platform supports it; otherwise read into
// one aligned buffer) and its head classified (classifyHead): a flat bundle
// is opened over the mapping, a retired form fails by name, anything else as
// unknown. Every column of the returned ingestion aliases the mapping, which
// stays valid for the ingestion's lifetime — its Backing pins it — and is
// released by the runtime once the ingestion becomes unreachable; views it
// hands out (instance spans, stored geometries, ...) must not outlive it.
// Errors carry the path; a corrupt file — including one too short to
// classify — wraps ErrCorruptBundle while a missing file wraps
// fs.ErrNotExist, so callers can react differently.
func LoadFile(path string) (*core.Ingestion, error) {
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
	var ing *core.Ingestion
	if _, _, err = classifyHead(data[:min(len(data), flatHeaderSize)]); err == nil {
		ing, err = openFlatBytes(data, backing)
	}
	if err != nil {
		backing.release()
		return nil, fmt.Errorf("bundle %q: %w", path, err)
	}
	return ing, nil
}

// ValidateForServing checks the invariants a bundle must satisfy before a
// live server swaps to it — beyond the structural validation opening
// already does. LoadFile succeeds on any well-formed bundle; this rejects
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
// and relationships.
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
