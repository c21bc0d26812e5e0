// Package idindex finds ids in an ascending id column by position, in
// constant time for evenly spread ids. A bundle's columns reference each
// other by id — a name index names concepts, an assertion names instances —
// and checking every reference with a binary search over a 100,000-id
// column is the n log n term of opening a bundle. An Index is built in one
// pass over the column and answers each reference with a search of one
// bucket.
//
// The column is split into at most len(ids) buckets by the high bits of
// id − first, so a bucket holds the ids of one contiguous value range.
// Evenly spread ids put about one id in a bucket; a clustered column puts
// more in some, and a lookup then costs a binary search of its bucket,
// never more than a binary search of the whole column. The arithmetic is
// in uint64, so any column — negative ids, gaps, the full int64 range —
// is exact.
package idindex

import "slices"

// Index is a position index over one ascending id column. It holds the
// column by reference and must not outlive a change to it.
type Index[T ~int64] struct {
	ids   []T
	shift uint
	// starts[b] is the first position whose id falls in bucket b or a later
	// one; bucket b is ids[starts[b]:starts[b+1]].
	starts []int
}

// New builds the index over ids in one pass. Find answers as
// slices.BinarySearch does on an ascending column, which the callers check
// first; on any other column it stays memory-safe.
func New[T ~int64](ids []T) Index[T] {
	x := Index[T]{ids: ids}
	if len(ids) == 0 {
		return x
	}
	first := ids[0]
	span := uint64(ids[len(ids)-1] - first)
	for span>>x.shift >= uint64(len(ids)) {
		x.shift++
	}
	buckets := int(span>>x.shift) + 1
	x.starts = make([]int, buckets+1)
	b := 0
	for pos, id := range ids {
		for k := uint64(id-first) >> x.shift; b < buckets && uint64(b) <= k; b++ {
			x.starts[b] = pos
		}
	}
	for ; b <= buckets; b++ {
		x.starts[b] = len(ids)
	}
	return x
}

// Find returns id's position in the column and whether it is there; an
// absent id returns the position where it would be inserted. Both equal
// slices.BinarySearch(ids, id).
func (x Index[T]) Find(id T) (pos int, ok bool) {
	n := len(x.ids)
	if n == 0 || id < x.ids[0] {
		return 0, false
	}
	if id > x.ids[n-1] {
		return n, false
	}
	b := uint64(id-x.ids[0]) >> x.shift
	lo, hi := x.starts[b], x.starts[b+1]
	i, ok := slices.BinarySearch(x.ids[lo:hi], id)
	return lo + i, ok
}
