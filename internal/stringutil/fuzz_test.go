package stringutil

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{"", "Fever", "pain, in throat!", "béta-blocker", "a  b\tc", strings.Repeat("x", 300)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		// Idempotent.
		if Normalize(n) != n {
			t.Fatalf("Normalize not idempotent on %q -> %q", s, n)
		}
		// No leading/trailing/double spaces.
		if strings.HasPrefix(n, " ") || strings.HasSuffix(n, " ") || strings.Contains(n, "  ") {
			t.Fatalf("Normalize(%q) = %q has stray spaces", s, n)
		}
		// Valid UTF-8 out of valid or invalid input.
		if !utf8.ValidString(n) {
			t.Fatalf("Normalize(%q) produced invalid UTF-8", s)
		}
	})
}

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{"", "type-2 diabetes", "x'", "--", "ΔFOSB overexpression"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
			if strings.ContainsAny(tok, " \t\n") {
				t.Fatalf("token %q contains whitespace", tok)
			}
			if strings.HasPrefix(tok, "-") || strings.HasSuffix(tok, "-") ||
				strings.HasPrefix(tok, "'") || strings.HasSuffix(tok, "'") {
				t.Fatalf("token %q has dangling connector", tok)
			}
		}
	})
}

func FuzzLevenshteinWithin(f *testing.F) {
	f.Add("kitten", "sitting", 2)
	f.Add("", "abc", 3)
	f.Add("same", "same", 0)
	f.Add("béta-blocker", "beta-blocker", 1)
	f.Add("\xff\xfe", "\ufffd", 1)
	// One band across the whole run, so every check starts from the rows and
	// buffers the previous inputs left behind, as a lexicon scan does.
	var band EditBand
	f.Fuzz(func(t *testing.T, a, b string, maxDist int) {
		if len(a) > 64 || len(b) > 64 {
			return
		}
		if maxDist < -2 || maxDist > 8 {
			maxDist %= 8
		}
		got := LevenshteinWithin(a, b, maxDist)
		want := maxDist >= 0 && Levenshtein(a, b) <= maxDist
		if got != want {
			t.Fatalf("LevenshteinWithin(%q,%q,%d) = %v, full distance %d", a, b, maxDist, got, Levenshtein(a, b))
		}
		// Differential against the allocating body EditBand replaced, in
		// both directions and at the neighbouring thresholds.
		for _, pair := range [][2]string{{a, b}, {b, a}} {
			band.Reset(pair[0])
			for d := maxDist - 1; d <= maxDist+1; d++ {
				if got, want := band.Within(pair[1], d), legacyLevenshteinWithin(pair[0], pair[1], d); got != want {
					t.Fatalf("EditBand(%q).Within(%q,%d) = %v, legacy body says %v", pair[0], pair[1], d, got, want)
				}
			}
		}
	})
}

// legacyLevenshteinWithin is the body LevenshteinWithin had before EditBand:
// two []rune conversions and two fresh rows per call.
func legacyLevenshteinWithin(a, b string, maxDist int) bool {
	if maxDist < 0 {
		return false
	}
	ra, rb := []rune(a), []rune(b)
	if abs(len(ra)-len(rb)) > maxDist {
		return false
	}
	if len(ra) == 0 {
		return len(rb) <= maxDist
	}
	if len(rb) == 0 {
		return len(ra) <= maxDist
	}
	const inf = 1 << 30
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		lo := max(1, i-maxDist)
		hi := min(len(rb), i+maxDist)
		if lo-1 >= 0 {
			if i <= maxDist {
				curr[0] = i
			} else {
				curr[0] = inf
			}
		}
		if lo > 1 {
			curr[lo-1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if prev[j]+1 < v {
				v = prev[j] + 1
			}
			if curr[j-1]+1 < v {
				v = curr[j-1] + 1
			}
			curr[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi < len(rb) {
			curr[hi+1] = inf
		}
		if rowMin > maxDist {
			return false
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)] <= maxDist
}
