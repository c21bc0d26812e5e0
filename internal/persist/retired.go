package persist

import (
	"encoding/json"
	"fmt"
)

// Input forms this package once read and now refuses by name. Each carried
// derived data — or, for the binary stream, everything — in an encoding
// nothing writes any more; a bundle in one of them is rebuilt from its
// sources, not converted. A reader that meets one fails with an error
// wrapping ErrCorruptBundle that names the form, before any checksum is
// looked at: "this file is corrupt" would send an operator looking for a bad
// disk.

// retiredBinaryMagic opened the varint-packed binary stream (version byte 2,
// or 3 with the acceleration sections appended): magic, version, CRC-32.
const retiredBinaryMagic = "MRXB"

// secMatCands held a flat bundle's materialized candidates as 24-byte
// (concept, score, hops, pad) records before the score and slot columns.
const secMatCands uint32 = 86

// retiredCidxFirst to retiredCidxLast held a flat bundle's candidate index as
// ascending concepts, a CSR, 32-byte (concept, hops, gen, spec, LCS span)
// posting records and the LCS id pool the spans pointed into, before the index
// stored the geometry columns the kernel scores.
const retiredCidxFirst, retiredCidxLast uint32 = 90, 93

// retiredf is the error a retired input form fails with.
func retiredf(format, what string, args ...any) error {
	return corruptf(format, "%s is a retired form no reader decodes; rebuild the bundle with -format flat", fmt.Sprintf(what, args...))
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

// retiredJSONKeys catches the keys under which a v1 document carried the
// materialized store and the candidate index. Decoded beside Bundle, which
// no longer has them, so such a document is refused by name and not for the
// checksum its dropped keys would break.
type retiredJSONKeys struct {
	Materialized   json.RawMessage `json:"materialized"`
	CandidateIndex json.RawMessage `json:"candidateIndex"`
}

// v1Document is a v1 document as a reader decodes it.
type v1Document struct {
	Bundle
	retiredJSONKeys
}

func (k retiredJSONKeys) err() error {
	const form = "a v1 document with a %q key (accelerated v1)"
	switch {
	case k.Materialized != nil:
		return retiredf("json v1", form, "materialized")
	case k.CandidateIndex != nil:
		return retiredf("json v1", form, "candidateIndex")
	}
	return nil
}

// retiredFlatSection refuses a flat bundle for holding its materialized
// candidates in section 86 or its candidate index in sections 90–93; every
// other kind passes.
func retiredFlatSection(kind uint32) error {
	switch {
	case kind == secMatCands:
		return retiredf("flat v4", "a materialized store in section %d (24-byte candidate records)", secMatCands)
	case kind >= retiredCidxFirst && kind <= retiredCidxLast:
		return corruptf("flat v4", "a candidate index held as candidate-index postings (sections %d–%d) is a retired form no reader decodes; rebuild with -index -format flat",
			retiredCidxFirst, retiredCidxLast)
	}
	return nil
}
