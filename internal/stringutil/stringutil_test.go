package stringutil

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"medrelax/internal/strtab"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"Fever", "fever"},
		{"  Chronic   Kidney Disease ", "chronic kidney disease"},
		{"Pain, in throat!", "pain in throat"},
		{"Beta-blocker", "beta-blocker"},
		{"-leading and trailing-", "leading and trailing"},
		{"O'Brien's syndrome", "o'brien's syndrome"},
		{"COVID-19 (suspected)", "covid-19 suspected"},
		{"a\tb\nc", "a b c"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"fever", []string{"fever"}},
		{"Psychogenic fever", []string{"psychogenic", "fever"}},
		{"type-2 diabetes", []string{"type-2", "diabetes"}},
		{"!!!", nil},
		{"x'", []string{"x"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"fever", "fever", 0},
		{"hyperpyrexia", "hypothermia", 6},
		{"gumbo", "gambol", 2},
		{"pertussis", "pertusis", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentityAndBounds(t *testing.T) {
	f := func(a, b string) bool {
		d := Levenshtein(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		if a == b && d != 0 {
			return false
		}
		if d < 0 {
			return false
		}
		// Distance is bounded below by length difference and above by the
		// longer length.
		if d < absInt(la-lb) {
			return false
		}
		return d <= maxInt(la, lb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "abcdef"
	randStr := func() string {
		n := rng.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 500; i++ {
		a, b, c := randStr(), randStr(), randStr()
		if Levenshtein(a, c) > Levenshtein(a, b)+Levenshtein(b, c) {
			t.Fatalf("triangle inequality violated for %q %q %q", a, b, c)
		}
	}
}

func TestLevenshteinWithinAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := "abcdefgh"
	randStr := func() string {
		n := rng.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		a, b := randStr(), randStr()
		for maxDist := 0; maxDist <= 4; maxDist++ {
			want := Levenshtein(a, b) <= maxDist
			if got := LevenshteinWithin(a, b, maxDist); got != want {
				t.Fatalf("LevenshteinWithin(%q,%q,%d) = %v, want %v (full dist %d)",
					a, b, maxDist, got, want, Levenshtein(a, b))
			}
		}
	}
}

func TestLevenshteinWithinNegativeThreshold(t *testing.T) {
	if LevenshteinWithin("a", "a", -1) {
		t.Error("negative threshold must report false")
	}
}

func TestTokenJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"fever", "fever", 1},
		{"kidney disease", "disease kidney", 1},
		{"kidney disease", "kidney failure", 1.0 / 3.0},
		{"a b", "c d", 0},
	}
	for _, c := range cases {
		if got := TokenJaccard(c.a, c.b); got != c.want {
			t.Errorf("TokenJaccard(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTokenJaccardRange(t *testing.T) {
	f := func(a, b string) bool {
		j := TokenJaccard(a, b)
		return j >= 0 && j <= 1 && TokenJaccard(b, a) == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestLongestKeyAtIsTheLongestJoinedWindow: over drawn lexicons whose keys
// share byte prefixes that are not token prefixes ("a", "ab", "a-b", "a b"),
// LongestKeyAt finds at every token the longest window that joins to a key,
// as trying every window length does, and a scan that reuses its buffer
// allocates nothing.
func TestLongestKeyAtIsTheLongestJoinedWindow(t *testing.T) {
	words := []string{"a", "ab", "a-b", "b", "b'c", "é", "éa"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		set := map[string]bool{}
		for k := rng.Intn(12); k > 0; k-- {
			toks := make([]string, 1+rng.Intn(4))
			for j := range toks {
				toks[j] = words[rng.Intn(len(words))]
			}
			set[strings.Join(toks, " ")] = true
		}
		sorted := make([]string, 0, len(set))
		for k := range set {
			sorted = append(sorted, k)
		}
		slices.Sort(sorted)
		keys := strtab.Pack(sorted)
		stream := make([]string, rng.Intn(16))
		for j := range stream {
			stream[j] = words[rng.Intn(len(words))]
		}
		var buf []byte
		for i := range stream {
			want := len(stream) - i
			for want > 0 && !set[strings.Join(stream[i:i+want], " ")] {
				want--
			}
			var pos, n int
			pos, n, buf = LongestKeyAt(keys, stream, i, buf)
			if n != want || n > 0 && sorted[pos] != strings.Join(stream[i:i+n], " ") {
				t.Fatalf("keys %q, stream %q at %d: %d tokens (key %d), want %d", sorted, stream, i, n, pos, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for i := range stream {
				_, _, buf = LongestKeyAt(keys, stream, i, buf)
			}
		}); allocs != 0 {
			t.Fatalf("a scan with a warm buffer allocates %.0f times", allocs)
		}
	}
}
