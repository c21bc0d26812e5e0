package persist

import (
	"bytes"
	"fmt"
	"slices"
)

// Input forms this package once read and now refuses by name. Each is an
// encoding nothing writes any more — a whole-bundle codec (the JSON v1
// document, the binary stream), or a flat section laid out another way; a
// bundle in one of them is rebuilt from its sources, not converted. A reader
// that meets one fails with an error wrapping ErrCorruptBundle that names the
// form, before any checksum is looked at: "this file is corrupt" would send
// an operator looking for a bad disk.

// retiredBinaryMagic opened the varint-packed binary stream (version byte 2,
// or 3 with the acceleration sections appended): magic, version, CRC-32.
const retiredBinaryMagic = "MRXB"

// secMatCands held a flat bundle's materialized candidates as 24-byte
// (concept, score, hops, pad) records before the score and slot columns.
const secMatCands uint32 = 86

// retiredMatEntrySpans held a flat bundle's materialized complete flags, count
// offsets and candidate offsets per (concept, context) entry, a copy of the
// ranking for every context of an evidence class, before a ranking was stored
// once and its entries named it (matEntryRankings).
var retiredMatEntrySpans = [...]uint32{82, 83, 85}

// retiredCidxFirst to retiredCidxLast held a flat bundle's candidate index as
// ascending concepts, a CSR, 32-byte (concept, hops, gen, spec, LCS span)
// posting records and the LCS id pool the spans pointed into, before the index
// stored the geometry columns the kernel scores.
const retiredCidxFirst, retiredCidxLast uint32 = 90, 93

// secSourcesJSON held a federated flat bundle's secondary sources as one JSON
// document, restored onto the heap at every open, before each source became
// column families at a kind base of its own (sourceBase).
const secSourcesJSON uint32 = 100

// retiredTokenIndexFirst to retiredTokenIndexLast held a source's term
// resolver's token index (tokens, their keys, descendant counts) beside the
// key signatures, before every snapshot mapped query terms with EDIT alone.
const retiredTokenIndexFirst, retiredTokenIndexLast uint32 = 25, 28

// retiredResolver refuses the source at a kind base whose resolver carries
// the token index, or is missing (written before the resolver became
// columns). Both are met after the checksums: a current source holds the
// same kinds, and an absence is no section to checksum.
func retiredResolver(base uint32, secs map[uint32][]byte) error {
	for kind := base + retiredTokenIndexFirst; kind <= base+retiredTokenIndexLast; kind++ {
		if _, ok := secs[kind]; ok {
			return retiredf("flat v4", "a term resolver with its token index (sections %d–%d)",
				base+retiredTokenIndexFirst, base+retiredTokenIndexLast)
		}
	}
	if _, ok := secs[base+secLkKeySigs]; !ok {
		return retiredf("flat v4", "a source without its term resolver (no %s section)", flatSectionName(base+secLkKeySigs))
	}
	return nil
}

// retiredf is the error a retired input form fails with.
func retiredf(format, what string, args ...any) error {
	return corruptf(format, "%s is a retired form no reader decodes; rebuild the bundle with medrelax -save", fmt.Sprintf(what, args...))
}

// classifyHead names the form a bundle's first bytes announce: a flat bundle
// (no error), the binary stream or a JSON document (each with the error it
// fails with, whatever else is in the file), or no bundle at all. LoadFile
// and InspectFile both ask it.
func classifyHead(head []byte) (format string, version int, err error) {
	switch {
	case bytes.HasPrefix(head, []byte(flatMagic)):
		return "flat v4", VersionFlat, nil
	case bytes.HasPrefix(head, []byte(retiredBinaryMagic)):
		return retiredBinary(head)
	case looksLikeJSONStart(head):
		// The only JSON bundle there ever was, whatever its keys say.
		return "json v1", 1, retiredf("json v1", "a JSON document (the v1 bundle)")
	case len(head) < len(flatMagic):
		return "unknown", 0, corruptf("unknown", "truncated header (%d bytes)", len(head))
	}
	return "unknown", 0, corruptf("unknown", "no flat magic and no JSON object at byte 0")
}

// retiredBinary names a binary stream from its header: the version byte
// follows the magic.
func retiredBinary(head []byte) (format string, version int, err error) {
	format = "binary"
	if len(head) > len(retiredBinaryMagic) {
		version = int(head[len(retiredBinaryMagic)])
		format = fmt.Sprintf("binary v%d", version)
	}
	return format, version, retiredf(format, "the %s stream format (binary v2/v3)", retiredBinaryMagic)
}

// looksLikeJSONStart reports whether the first bytes could open a JSON
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

// retiredFlatSection refuses a flat bundle for holding its materialized
// candidates in section 86, its materialized spans per entry in sections 82,
// 83 and 85, its candidate index in sections 90–93 or its secondary sources in
// section 100; every other kind passes.
func retiredFlatSection(kind uint32) error {
	switch {
	case kind == secMatCands:
		return retiredf("flat v4", "a materialized store in section %d (24-byte candidate records)", secMatCands)
	case slices.Contains(retiredMatEntrySpans[:], kind):
		return retiredf("flat v4", "a materialized store holding a candidate span per entry (sections %d, %d and %d)",
			retiredMatEntrySpans[0], retiredMatEntrySpans[1], retiredMatEntrySpans[2])
	case kind >= retiredCidxFirst && kind <= retiredCidxLast:
		return corruptf("flat v4", "a candidate index held as candidate-index postings (sections %d–%d) is a retired form no reader decodes; rebuild with medrelax -save -index",
			retiredCidxFirst, retiredCidxLast)
	case kind == secSourcesJSON:
		return retiredf("flat v4", "a federated bundle holding its secondary sources in section %d (one JSON document)", secSourcesJSON)
	}
	return nil
}
