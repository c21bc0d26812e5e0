package strtab

import (
	"slices"
	"strings"
	"testing"
)

// TestBuilderTableAdoptsAsWritten: a table a Builder writes, adopted by
// NewTable, reads back every string it interned, each once, and a column over
// it reads as the strings it was built from.
func TestBuilderTableAdoptsAsWritten(t *testing.T) {
	words := []string{"fever", "", "cough", "fever", "abdominal pain", "", "cough"}
	var b Builder
	refs := make([]uint32, len(words))
	for i, w := range words {
		refs[i] = b.Ref(w)
	}
	off, blob := b.Table()
	if len(off) != 5 || string(blob) != "fevercoughabdominal pain" {
		t.Fatalf("table of %d offsets over %q, want 4 strings over %q", len(off)-1, blob, "fevercoughabdominal pain")
	}
	tab, err := NewTable(off, blob)
	if err != nil {
		t.Fatal(err)
	}
	col, err := tab.Column(refs)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Strings(); !slices.Equal(got, words) {
		t.Fatalf("column reads %q, want %q", got, words)
	}
	if got := Pack(words).Strings(); !slices.Equal(got, words) {
		t.Fatalf("packed column reads %q, want %q", got, words)
	}
	var empty Builder
	if off, blob := empty.Table(); !slices.Equal(off, []uint32{0}) || len(blob) != 0 {
		t.Fatalf("an empty builder's table is %v over %q", off, blob)
	}
}

// TestSearchFindsEveryPosition: Search over an ascending column finds each
// string at its position and an absent one where it would be inserted.
func TestSearchFindsEveryPosition(t *testing.T) {
	sorted := []string{"", "a", "ab", "b", "ba", "c"}
	col := Pack(sorted)
	for i, s := range sorted {
		if at, ok := col.Search(s); !ok || at != i {
			t.Errorf("Search(%q) = %d, %v; want %d, true", s, at, ok, i)
		}
	}
	for _, s := range []string{"aa", "bb", "d"} {
		want, _ := slices.BinarySearch(sorted, s)
		if at, ok := col.Search(s); ok || at != want {
			t.Errorf("Search(%q) = %d, %v; want %d, false", s, at, ok, want)
		}
	}
	if at, ok := (Column{}).Search("a"); ok || at != 0 {
		t.Errorf("the empty column finds %q at %d, %v", "a", at, ok)
	}
}

// TestHostileTablesAndReferencesRefused: offsets that do not span the blob or
// decrease, and a reference past the table, are refused, never read.
func TestHostileTablesAndReferencesRefused(t *testing.T) {
	blob := []byte("abc")
	for _, c := range []struct {
		name string
		off  []uint32
		want string
	}{
		{"no offsets", nil, "empty string offset table"},
		{"late start", []uint32{1, 3}, "do not span"},
		{"short end", []uint32{0, 2}, "do not span"},
		{"past the blob", []uint32{0, 4}, "do not span"},
		{"decreasing", []uint32{0, 2, 1, 3}, "decrease at 2"},
	} {
		if _, err := NewTable(c.off, blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewTable = %v, want an error saying %q", c.name, err, c.want)
		}
	}
	tab, err := NewTable([]uint32{0, 1, 3}, blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Column([]uint32{0, 1, 2}); err == nil || !strings.Contains(err.Error(), "reference 2 out of range (table has 2)") {
		t.Errorf("a reference past the table: %v", err)
	}
}
