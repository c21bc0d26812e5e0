package main

import (
	"math/rand"
	"net/url"
	"strconv"
	"time"
)

// request is one relax query. The program under test receives only these
// generated inputs; the seed never reaches it.
type request struct {
	Term    string `json:"term"`
	Context string `json:"context"`
	K       int    `json:"k"`
}

func (r request) key() string {
	return r.Term + "\x1f" + r.Context + "\x1f" + strconv.Itoa(r.K)
}

func (r request) path() string {
	return "/relax?term=" + url.QueryEscape(r.Term) + "&context=" + url.QueryEscape(r.Context) + "&k=" + strconv.Itoa(r.K)
}

// The two finding contexts of the paper's Figure 1, as they go on the wire
// (medkb.CtxIndicationFinding and medkb.CtxRiskFinding).
const (
	ctxIndication = "Indication-hasFinding-Finding"
	ctxRisk       = "Risk-hasFinding-Finding"
)

const (
	zipfTerms    = 300 // most frequent flagged terms the zipf workloads draw from
	zipfExponent = 1.2
	zipfK        = 10
)

var zipfContexts = []string{ctxIndication, ctxRisk, ""}

// Salts keep the request stream and the arrival schedule of one seed
// independent of each other.
const (
	saltZipf     = 1
	saltLongtail = 2
	saltArrivals = 3
)

func seeded(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + salt))
}

// zipfKeys is the whole key space of the zipf workloads in popularity
// order — what warm-up replays once so that every measured request hits.
func zipfKeys(ranked []string) []request {
	terms := ranked[:min(zipfTerms, len(ranked))]
	keys := make([]request, 0, len(terms)*len(zipfContexts))
	for _, t := range terms {
		for _, c := range zipfContexts {
			keys = append(keys, request{Term: t, Context: c, K: zipfK})
		}
	}
	return keys
}

// zipfStream draws n requests: term rank by zipf s=1.2 over the head of the
// popularity ranking, context Indication 45 % / Risk 45 % / none 10 %, k=10.
func zipfStream(seed int64, ranked []string, n int) []request {
	terms := ranked[:min(zipfTerms, len(ranked))]
	rng := seeded(seed, saltZipf)
	zipf := rand.NewZipf(rng, zipfExponent, 1, uint64(len(terms)-1))
	out := make([]request, n)
	for i := range out {
		r := request{Term: terms[zipf.Uint64()], K: zipfK}
		switch u := rng.Float64(); {
		case u < 0.45:
			r.Context = ctxIndication
		case u < 0.90:
			r.Context = ctxRisk
		}
		out[i] = r
	}
	return out
}

var longtailKs = []int{5, 10, 20, 50}

const (
	typoShare    = 0.05
	unknownShare = 0.01
)

// longtailStream draws n requests uniformly over terms × contexts × k, so
// the key space dwarfs the result cache; 5 % of terms carry a one-edit typo
// (resolved by the edit-distance scan over every name) and 1 % are unknown.
func longtailStream(seed int64, terms, contexts []string, n int) []request {
	rng := seeded(seed, saltLongtail)
	out := make([]request, n)
	for i := range out {
		r := request{
			Term:    terms[rng.Intn(len(terms))],
			Context: contexts[rng.Intn(len(contexts))],
			K:       longtailKs[rng.Intn(len(longtailKs))],
		}
		switch u := rng.Float64(); {
		case u < typoShare:
			r.Term = typo(rng, r.Term)
		case u < typoShare+unknownShare:
			r.Term = "qzxj" + strconv.Itoa(rng.Intn(1_000_000)) + "wvkq"
		}
		out[i] = r
	}
	return out
}

// typo applies one edit — substitute, delete or insert a letter — away from
// the first character, the way a hurried user mistypes a drug-label term.
func typo(rng *rand.Rand, term string) string {
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

// poissonArrivals returns the due times, counted from the start of the
// phase, of an open loop at rate per second lasting dur: exponential gaps
// from a seeded source, so the same seed offers the same load.
func poissonArrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := seeded(seed, saltArrivals)
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// firstDistinct returns the first n distinct requests of a stream, in
// stream order — the keys whose served bodies are checked byte for byte.
func firstDistinct(stream []request, n int) []request {
	seen := make(map[string]bool, n)
	var out []request
	for _, r := range stream {
		if len(out) == n {
			break
		}
		if k := r.key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
