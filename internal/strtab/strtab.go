// Package strtab is the one layout of a frozen string column: references into
// a string table, whose strings are spans of one byte blob. A flat bundle's
// string sections are such a table and such references, so a column opened
// from a mapped bundle aliases the mapping and nothing is decoded per string;
// a column built in process is packed into the same layout. This package is
// the only code that knows the table's layout.
package strtab

import (
	"errors"
	"fmt"
	"unsafe"
)

// Table is an interned string table: string i is blob[off[i]:off[i+1]]. Its
// slices may alias a memory mapping and are never mutated.
type Table struct {
	off  []uint32 // one more than the strings, from 0, never decreasing, ending at len(blob)
	blob []byte
}

// NewTable adopts a table's offsets and blob, which may alias a memory
// mapping, after checking that the offsets span the blob.
func NewTable(off []uint32, blob []byte) (*Table, error) {
	if len(off) == 0 {
		return nil, errors.New("empty string offset table")
	}
	if off[0] != 0 || int(off[len(off)-1]) != len(blob) {
		return nil, errors.New("string offsets do not span the blob")
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("string offsets decrease at %d", i)
		}
	}
	return &Table{off: off, blob: blob}, nil
}

// Column adopts refs, which may alias a memory mapping, as a column of t
// after checking every reference names one of its strings.
func (t *Table) Column(refs []uint32) (Column, error) {
	n := uint32(len(t.off) - 1)
	for _, r := range refs {
		if r >= n {
			return Column{}, fmt.Errorf("string reference %d out of range (table has %d)", r, n)
		}
	}
	return Column{refs: refs, tab: t}, nil
}

// at is string r, aliasing the blob.
func (t *Table) at(r uint32) string {
	lo, hi := t.off[r], t.off[r+1]
	if hi == lo {
		return ""
	}
	return unsafe.String(&t.blob[lo], int(hi-lo))
}

// Column is a column of strings: references into a Table. The zero Column is
// empty. A Column is a value; copies share the references and the table.
type Column struct {
	refs []uint32
	tab  *Table
}

// Len is the number of strings in the column.
func (c Column) Len() int { return len(c.refs) }

// At is the column's i-th string. It aliases the table's blob: nothing is
// copied, and it lives as long as the table's memory does.
func (c Column) At(i int) string { return c.tab.at(c.refs[i]) }

// Search finds s in a column whose strings ascend: the position of s and
// true, or the position it would be inserted at and false.
func (c Column) Search(s string) (int, bool) {
	lo, hi := 0, len(c.refs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.At(mid) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.refs) && c.At(lo) == s
}

// Strings copies the column's strings into a slice; the strings still alias
// the table.
func (c Column) Strings() []string {
	out := make([]string, len(c.refs))
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// Builder interns strings into a table in the order they are first met. The
// zero Builder is ready to use.
type Builder struct {
	idx  map[string]uint32
	off  []uint32
	blob []byte
}

// Ref interns s and returns its reference.
func (b *Builder) Ref(s string) uint32 {
	if b.idx == nil {
		b.idx, b.off = map[string]uint32{}, []uint32{0}
	}
	if r, ok := b.idx[s]; ok {
		return r
	}
	r := uint32(len(b.off) - 1)
	b.idx[s] = r
	b.blob = append(b.blob, s...)
	b.off = append(b.off, uint32(len(b.blob)))
	return r
}

// Table is the strings interned so far, as the table's offsets and blob.
func (b *Builder) Table() (off []uint32, blob []byte) {
	if b.off == nil {
		return []uint32{0}, nil
	}
	return b.off, b.blob
}

// Pack lays strings out as a column over a table of their own, one string of
// the table a reference, in order: the form a component built in process
// freezes its string columns in. It interns nothing, so a freeze pays a copy
// of the bytes and no hashing.
func Pack(ss []string) Column {
	size := 0
	for _, s := range ss {
		size += len(s)
	}
	blob := make([]byte, 0, size)
	off, refs := make([]uint32, len(ss)+1), make([]uint32, len(ss))
	for i, s := range ss {
		blob = append(blob, s...)
		off[i+1], refs[i] = uint32(len(blob)), uint32(i)
	}
	return Column{refs: refs, tab: &Table{off: off, blob: blob}}
}
