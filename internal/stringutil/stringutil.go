// Package stringutil provides the low-level text primitives shared by the
// rest of the system: normalization, tokenization, and approximate string
// distance measures.
//
// All matching in medrelax — instance-to-concept mapping, entity mention
// extraction, corpus counting — funnels through Normalize and Tokenize so
// that every layer agrees on what "the same string" means.
package stringutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize canonicalizes a surface form for matching: it lowercases,
// collapses runs of whitespace, strips surrounding punctuation from tokens,
// and trims the result. Normalize is idempotent; already-normal input is
// returned as-is without allocating, which makes re-normalization on the
// ingestion and restore hot paths near-free.
func Normalize(s string) string {
	if isNormalized(s) {
		return s
	}
	tokens := Tokenize(s)
	return strings.Join(tokens, " ")
}

// isNormalized reports whether s is already in Normalize's output form:
// lowercase ASCII tokens of letters/digits (with interior -/' connectors)
// separated by single spaces, no leading/trailing blanks or dangling
// connectors.
func isNormalized(s string) bool {
	prev := byte(' ') // sentinel: start of string behaves like after-space
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
		case c == '-' || c == '\'':
			// Connectors survive Normalize only in token interiors.
			if prev == ' ' || i+1 >= len(s) || s[i+1] == ' ' {
				return false
			}
		case c == ' ':
			if prev == ' ' || i == len(s)-1 {
				return false
			}
		default:
			return false
		}
		prev = c
	}
	return true
}

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters, digits, or intra-word hyphens/apostrophes. All other runes
// separate tokens. Tokenize never returns empty tokens.
func Tokenize(s string) []string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return tokenizeRunes(s)
		}
	}
	// ASCII fast path: lowercase once, then slice tokens out of the shared
	// backing string instead of building each one rune by rune.
	lower := strings.ToLower(s)
	var tokens []string
	for i := 0; i < len(lower); {
		for i < len(lower) && !isTokenByte(lower[i]) {
			i++
		}
		start := i
		for i < len(lower) && isTokenByte(lower[i]) {
			i++
		}
		if start < i {
			if tok := strings.Trim(lower[start:i], "-'"); tok != "" {
				tokens = append(tokens, tok)
			}
		}
	}
	return tokens
}

func isTokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '\''
}

// tokenizeRunes is the general Unicode path of Tokenize.
func tokenizeRunes(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tok := strings.Trim(b.String(), "-'")
			if tok != "" {
				tokens = append(tokens, tok)
			}
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '-' || r == '\'':
			// Keep intra-word connectors; Trim above drops dangling ones.
			if b.Len() > 0 {
				b.WriteRune(r)
			}
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions, each at cost 1) between a and b, computed over runes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Single-row dynamic program.
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}

// LevenshteinWithin reports whether the edit distance between a and b is at
// most maxDist, without computing the full distance when it is not. It runs
// a banded dynamic program of width 2*maxDist+1, making it much cheaper than
// Levenshtein for small thresholds. To check one string against many, reuse
// an EditBand.
func LevenshteinWithin(a, b string, maxDist int) bool {
	var e EditBand
	e.Reset(a)
	return e.Within(b, maxDist)
}

// EditBand is the working memory of LevenshteinWithin, kept so that scanning
// a lexicon for the names near one string allocates nothing per name: Reset
// decodes the fixed string once, Within decodes each candidate into a reused
// buffer and runs the band over reused rows. The zero value is ready to use;
// an EditBand must not be shared between goroutines.
type EditBand struct {
	a, b       []rune
	prev, curr []int
}

// Reset fixes the string later Within calls compare against.
func (e *EditBand) Reset(a string) { e.a = decodeRunes(e.a, a) }

// decodeRunes decodes s into buf's storage, as []rune(s) would. ASCII — the
// whole of a normalized English lexicon — widens byte by byte without the
// UTF-8 decoder.
func decodeRunes(buf []rune, s string) []rune {
	buf = buf[:0]
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			buf = buf[:0]
			for _, r := range s {
				buf = append(buf, r)
			}
			return buf
		}
		buf = append(buf, rune(s[i]))
	}
	return buf
}

// Within reports whether the edit distance between the Reset string and b is
// at most maxDist.
func (e *EditBand) Within(b string, maxDist int) bool {
	if maxDist < 0 {
		return false
	}
	e.b = decodeRunes(e.b, b)
	ra, rb := e.a, e.b
	if abs(len(ra)-len(rb)) > maxDist {
		return false
	}
	// A common prefix or suffix does not change the distance, and names of
	// one lexicon share long ones; the band runs over what is left.
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb) <= maxDist
	}
	if len(rb) == 0 {
		return len(ra) <= maxDist
	}
	const inf = 1 << 30
	if cap(e.prev) < len(rb)+1 {
		e.prev = make([]int, len(rb)+1)
		e.curr = make([]int, len(rb)+1)
	}
	// The rows carry stale cells from earlier calls; every cell a row reads
	// is written first — the band itself and the inf guards either side.
	prev, curr := e.prev[:len(rb)+1], e.curr[:len(rb)+1]
	for j := 0; j <= min(len(rb), maxDist+1); j++ { // what row 1 reads
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		lo := max(1, i-maxDist)
		hi := min(len(rb), i+maxDist)
		if i <= maxDist {
			curr[0] = i
		} else {
			curr[0] = inf
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

// TokenJaccard returns the Jaccard similarity of the token sets of a and b,
// in [0,1]. Two empty strings have similarity 1.
func TokenJaccard(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	set := make(map[string]uint8, len(ta)+len(tb))
	for _, t := range ta {
		set[t] |= 1
	}
	for _, t := range tb {
		set[t] |= 2
	}
	inter, union := 0, 0
	for _, m := range set {
		union++
		if m == 3 {
			inter++
		}
	}
	return float64(inter) / float64(union)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
