package medrelax

// BenchmarkResolve times the served query-term mapper, EDIT at τ=2
// (Algorithm 2, line 1), on the 100k-concept world of BenchmarkIngest:
//
//	go test -run '^$' -bench Resolve -benchtime 2000x .
//
// Each sub-benchmark cycles one term mix, so ns/op is the mix's mean:
// typos are one-edit misspellings of flagged names, made as the benchmark's
// miss stream makes them; unknown are terms no key is near; late-typos drop
// the third byte of keys spread over the first half of the sorted key
// column, where a typo's cost used to grow with its key's position.

import (
	"math/rand"
	"strconv"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
)

// resolved keeps the compiler from dropping the timed Map calls.
var resolved eks.ConceptID

func BenchmarkResolve(b *testing.B) {
	med, g, corp := benchWorld(b, 100_000)
	ing, err := core.Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7919))
	var names []string
	for _, id := range ing.FlaggedIDs() {
		if name, ok := ing.Graph.Name(id); ok {
			names = append(names, name)
		}
	}
	var typos, unknown, late []string
	for range 300 {
		typos = append(typos, oneEditTypo(rng, names[rng.Intn(len(names))]))
	}
	for range 60 {
		unknown = append(unknown, "qzxj"+strconv.Itoa(rng.Intn(1_000_000))+"wvkq")
	}
	keys := ing.Graph.FlatData().NameKeys
	for pos := 7; pos < 50_000 && pos < keys.Len(); pos += 9_973 {
		key := keys.At(pos)
		late = append(late, key[:2]+key[3:])
	}
	m := match.NewEdit(ing.Graph, 0)
	m.Map(typos[0]) // the first typo derives the key signatures
	for _, mix := range []struct {
		name  string
		terms []string
	}{{"typos", typos}, {"unknown", unknown}, {"late-typos", late}} {
		b.Run(mix.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resolved, _ = m.Map(mix.terms[i%len(mix.terms)])
			}
		})
	}
}

// oneEditTypo substitutes, deletes or inserts one random letter past the
// first byte of term, as the benchmark's miss stream misspells a term.
func oneEditTypo(rng *rand.Rand, term string) string {
	b := []byte(term)
	if len(b) < 3 {
		return term + "x"
	}
	pos := 1 + rng.Intn(len(b)-1)
	letter := byte('a' + rng.Intn(26))
	switch rng.Intn(3) {
	case 0:
		if b[pos] == letter {
			letter = 'a' + (letter-'a'+1)%26
		}
		b[pos] = letter
	case 1:
		b = append(b[:pos], b[pos+1:]...)
	default:
		b = append(b[:pos], append([]byte{letter}, b[pos:]...)...)
	}
	return string(b)
}
