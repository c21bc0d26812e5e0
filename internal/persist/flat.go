package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
)

// Flat bundle (v4) layout — a zero-copy snapshot. Where v1 is a document
// that must be decoded record by record into heap structures, v4 lays the
// ingestion out as the flat arrays the read path wants to traverse: CSR
// adjacency, sorted ID columns, candidate and geometry columns in the
// fixed-width form the kernel reads. A reader maps the
// file and serves queries directly from the mapping — opening a bundle
// costs a directory walk plus one CRC pass, not a rebuild.
//
//	header      32 bytes (see below)
//	sections    each 8-byte aligned, zero-padded between
//	directory   sectionCount × 32-byte entries, 8-byte aligned
//
// Header:
//
//	magic        "MRXF"          4 bytes
//	version      4               uint32
//	sectionCount                 uint32
//	dirCRC       IEEE(directory) uint32
//	dirOff                       uint64
//	fileSize                     uint64
//
// Directory entry: kind uint32, reserved uint32, off uint64, len uint64,
// crc uint32 (IEEE over the unpadded payload), pad uint32. Every multi-byte
// value in the file is little-endian and every section starts 8-byte
// aligned, so on little-endian hosts numeric sections are reinterpreted in
// place ([]byte → []int64/[]float64/...) without copying; big-endian hosts
// fall back to a copying decode of the same bytes.
//
// Strings are interned once: section strBlob holds the concatenated UTF-8
// bytes, strOff the nStr+1 offsets into it, and every string-valued column
// elsewhere is a []uint32 of indexes into that table. The reader builds
// []string headers pointing into the blob (one allocation per column), so
// no string bytes are copied.
//
// Integrity: a torn or bit-flipped file fails the directory or a section
// CRC and is rejected with ErrCorruptBundle before any structural
// validation runs; the component constructors (eks.NewFlatGraph,
// kb.NewFlatStore, core.NewFlatIngestion, ...) then re-validate the
// structural invariants, so a hostile bundle that passes its checksums
// still cannot produce out-of-bounds traversals.

// flatMagic marks a flat (v4) bundle. LoadFile sniffs it to route the path
// to the memory-mapping opener instead of the streaming decoder.
const flatMagic = "MRXF"

// VersionFlat is the flat bundle format version.
const VersionFlat = 4

const (
	flatHeaderSize   = 32
	flatDirEntrySize = 32
	flatMetaSize     = 64
	// flatMaxSections bounds the section count read from a header so a
	// corrupted count cannot drive a huge allocation.
	flatMaxSections = 1 << 12
)

// Section kinds. The numeric gaps group sections by subsystem; the writer
// emits them in ascending kind order and the reader addresses them through
// the directory, so the gaps cost nothing.
const (
	secMeta   uint32 = 1
	secStrOff uint32 = 2 // []uint32, nStr+1 offsets into strBlob
	secStr    uint32 = 3 // concatenated string bytes

	secGraphIDs      uint32 = 10 // []eks.ConceptID, ascending
	secGraphNames    uint32 = 11 // []uint32 string refs, one per concept
	secGraphSynOff   uint32 = 12 // []int32 CSR into graphSyns
	secGraphSyns     uint32 = 13 // []uint32 string refs
	secGraphUpOff    uint32 = 14 // []int32 CSR
	secGraphUpTo     uint32 = 15 // []int32 dense node targets
	secGraphUpDist   uint32 = 16 // []int32
	secGraphUpNEnd   uint32 = 17 // []int32, absolute native/shortcut boundaries
	secGraphDownOff  uint32 = 18
	secGraphDownTo   uint32 = 19
	secGraphDownDist uint32 = 20
	secGraphDownNEnd uint32 = 21
	secGraphNameKeys uint32 = 22 // []uint32 string refs, sorted unique keys
	secGraphKeyOff   uint32 = 23 // []int32 CSR into graphKeyIDs
	secGraphKeyIDs   uint32 = 24 // []eks.ConceptID

	// The term resolver over the graph's name keys (match.FlatLookupData). A
	// bundle without these sections opens with no resolver and its server
	// builds one.
	secLkTokens  uint32 = 25 // []uint32 string refs, distinct tokens ascending
	secLkTokOff  uint32 = 26 // []int32 CSR into lkTokKeys
	secLkTokKeys uint32 = 27 // []int32 positions in graphNameKeys, ascending per token
	secLkDesc    uint32 = 28 // []int32 descendant counts, parallel to graphIDs
	secLkKeySigs uint32 = 29 // []uint64 letter-set signatures, parallel to graphNameKeys

	secOntoConcepts uint32 = 30 // []uint32 string refs, (name, parent) pairs
	secOntoRels     uint32 = 31 // []uint32 string refs, (name, domain, range) triples

	secStoreIDs      uint32 = 40 // []kb.InstanceID, ascending
	secStoreConcepts uint32 = 41 // []uint32 string refs, one per instance
	secStoreNames    uint32 = 42 // []uint32 string refs, one per instance
	secStoreLexKeys  uint32 = 43 // []uint32 string refs, sorted unique
	secStoreLexOff   uint32 = 44 // []int32 CSR into storeLexIDs
	secStoreLexIDs   uint32 = 45 // []kb.InstanceID
	secStoreConKeys  uint32 = 46 // []uint32 string refs, sorted unique
	secStoreConOff   uint32 = 47 // []int32 CSR into storeConIDs
	secStoreConIDs   uint32 = 48 // []kb.InstanceID
	secStoreRelNames uint32 = 49 // []uint32 string refs, sorted unique
	secStoreASub     uint32 = 50 // []kb.InstanceID, assertion subjects
	secStoreARel     uint32 = 51 // []int32 indexes into storeRelNames
	secStoreAObj     uint32 = 52 // []kb.InstanceID, assertion objects
	secStorePerm     uint32 = 53 // []int32, by-object permutation

	secMapInst  uint32 = 60 // []kb.InstanceID, ascending mapped instances
	secMapCon   uint32 = 61 // []eks.ConceptID, parallel mapped concepts
	secMapFlag  uint32 = 62 // []eks.ConceptID, ascending flagged set
	secMapIOff  uint32 = 63 // []int32 CSR into mapIPool
	secMapIPool uint32 = 64 // []kb.InstanceID

	secFreqLabels  uint32 = 70 // []uint32 string refs, ascending labels
	secFreqOff     uint32 = 71 // []int32 CSR into freqIDs/freqVals
	secFreqIDs     uint32 = 72 // []eks.ConceptID, ascending per label
	secFreqVals    uint32 = 73 // []float64
	secFreqAggIDs  uint32 = 74 // []eks.ConceptID, ascending
	secFreqAggVals uint32 = 75 // []float64

	secMatCon     uint32 = 80 // []eks.ConceptID, (concept, ctx)-sorted entries
	secMatCtx     uint32 = 81 // []uint32 string refs, parallel context keys
	secMatFlags   uint32 = 82 // []int32, 1 = complete
	secMatCntOff  uint32 = 83 // []int32 CSR into matCnt
	secMatCnt     uint32 = 84 // []int32
	secMatCandOff uint32 = 85 // []int32 CSR into the candidate columns
	// 86 held the candidates as records; see retired.go.
	secMatCandScores uint32 = 87 // []float64, a candidate's final score
	secMatCandSlots  uint32 = 88 // []uint32, parallel: flagged slot<<8 | hops

	// 90–93 held the candidate index as posting records; see retired.go.

	// The candidate index: per indexed concept the geometry the kernel scores
	// (core.FlatCandidateIndexData), in shared pools.
	secCidxCon      uint32 = 110 // []eks.ConceptID, ascending indexed concepts
	secCidxOff      uint32 = 111 // []int32 CSR into cidxHits, in hits
	secCidxHits     uint32 = 112 // []int32, three a hit: flagged slot, LCS, shape
	secCidxLevels   uint32 = 113 // []int32, radius+1 a concept: hits within h hops
	secCidxCounts   uint32 = 114 // []int32, radius+1 a concept: instances within h hops
	secCidxShapeOff uint32 = 115 // []int32 CSR into cidxShapes, in shapes
	secCidxShapes   uint32 = 116 // []int32, two a shape: gen, spec
	secCidxSetOff   uint32 = 117 // []int32 CSR into the tied sets
	secCidxTiedOff  uint32 = 118 // []int32 set boundaries in cidxTied
	secCidxTied     uint32 = 119 // []int32 graph nodes, ascending within a set

	// secSources holds the secondary named sources of a federated bundle as
	// the canonical JSON encoding of []sourceDump. Secondaries are small
	// auxiliary vocabularies, so they ride as one self-contained section and
	// restore onto the heap — the zero-copy columns stay a primary-only
	// optimization. Readers that predate the kind tolerate it (unknown
	// sections are skipped), but metaHasSources makes the load refuse to
	// silently serve a smaller world: flag and section must agree.
	secSources uint32 = 100
)

// META flag bits.
const (
	metaHasMaterialized = 1 << 0
	metaHasCandidates   = 1 << 1
	metaHasSources      = 1 << 2
	matBitDynamicRadius = 1 << 0
	matBitIncludeSelf   = 1 << 1
)

// flatMeta is the decoded META section: the scalars that do not fit a
// column. Serialized as flatMetaSize little-endian bytes.
type flatMeta struct {
	eksRoot     eks.ConceptID
	shortcuts   int64
	freqRoot    eks.ConceptID
	freqSmooth  float64
	flags       uint32
	matRadius   uint32
	matMax      uint32
	matBits     uint32
	cidxRadius  uint32
	cidxSkipped int64
}

func (m *flatMeta) encode() []byte {
	b := make([]byte, flatMetaSize)
	binary.LittleEndian.PutUint64(b[0:], uint64(m.eksRoot))
	binary.LittleEndian.PutUint64(b[8:], uint64(m.shortcuts))
	binary.LittleEndian.PutUint64(b[16:], uint64(m.freqRoot))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(m.freqSmooth))
	binary.LittleEndian.PutUint32(b[32:], m.flags)
	binary.LittleEndian.PutUint32(b[36:], m.matRadius)
	binary.LittleEndian.PutUint32(b[40:], m.matMax)
	binary.LittleEndian.PutUint32(b[44:], m.matBits)
	binary.LittleEndian.PutUint32(b[48:], m.cidxRadius)
	// b[52:56] is padding.
	binary.LittleEndian.PutUint64(b[56:], uint64(m.cidxSkipped))
	return b
}

func decodeFlatMeta(b []byte) (flatMeta, error) {
	if len(b) != flatMetaSize {
		return flatMeta{}, corruptf("flat v4", "meta section is %d bytes, want %d", len(b), flatMetaSize)
	}
	return flatMeta{
		eksRoot:     eks.ConceptID(binary.LittleEndian.Uint64(b[0:])),
		shortcuts:   int64(binary.LittleEndian.Uint64(b[8:])),
		freqRoot:    eks.ConceptID(binary.LittleEndian.Uint64(b[16:])),
		freqSmooth:  math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		flags:       binary.LittleEndian.Uint32(b[32:]),
		matRadius:   binary.LittleEndian.Uint32(b[36:]),
		matMax:      binary.LittleEndian.Uint32(b[40:]),
		matBits:     binary.LittleEndian.Uint32(b[44:]),
		cidxRadius:  binary.LittleEndian.Uint32(b[48:]),
		cidxSkipped: int64(binary.LittleEndian.Uint64(b[56:])),
	}, nil
}

// hostLE reports whether this host is little-endian — the fast path where
// numeric sections are reinterpreted in place instead of copied.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Compile-time size pins: id columns are viewed in place as these types, so
// their sizes are part of the wire format. A change that alters a size fails
// the build here instead of corrupting bundles.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(eks.ConceptID(0))-8]
	_ = [1]struct{}{}[unsafe.Sizeof(kb.InstanceID(0))-8]
)

// flatNumber is what a numeric column holds: every one is 4 or 8 bytes wide.
type flatNumber interface {
	~int32 | ~uint32 | ~int64 | ~uint64 | ~float64
}

// viewColumn reinterprets (or, off the fast path, decodes) a section as a
// numeric column.
func viewColumn[T flatNumber](b []byte, what string) ([]T, error) {
	size := int(unsafe.Sizeof(T(0)))
	if len(b)%size != 0 {
		return nil, corruptf("flat v4", "%s section length %d not a multiple of %d", what, len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	if hostLE {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
	}
	out := make([]T, n)
	for i := range out {
		if size == 4 {
			u := binary.LittleEndian.Uint32(b[4*i:])
			out[i] = *(*T)(unsafe.Pointer(&u))
		} else {
			u := binary.LittleEndian.Uint64(b[8*i:])
			out[i] = *(*T)(unsafe.Pointer(&u))
		}
	}
	return out, nil
}

// sectionCRC is the per-section checksum. Same polynomial as v1 so the whole
// persistence layer shares one failure vocabulary.
func sectionCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }
