package medrelax

// BenchmarkMissReplay replays the shape of the benchmark's miss_longtail
// stream — uniform terms × every context × k in {5, 10, 20, 50}, 5 % one-edit
// typos, 1 % unknown terms — through server.Handler over a flat bundle, with
// no result cache in front: every request is a miss, so ms/request is the
// miss path itself rather than a mix that depends on where the stream wraps.
// Requests the kernel answered are also timed by where their geometry came
// from: the memo (ms/hit), a walk that filled or refilled it (ms/walk-fill:
// against ms/hit, what the memo saves) or a view of the candidate index's
// columns (ms/mapped: against ms/walk-fill, what the index saves, and it
// should cost what a hit costs). nodes/walk-fill is the mean number of graph
// nodes a fill's walk entered, a count that repeats exactly.
//
//	go test -run '^$' -bench MissReplay -benchtime 1x . -args -replay.bundle w100k.flat
//
// The bundle is the one bench/run.sh caches as .bench_build/w100k.flat.

import (
	"flag"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/engine"
	"medrelax/internal/server"
)

var replayBundle = flag.String("replay.bundle", "", "flat bundle BenchmarkMissReplay replays over (the benchmark is skipped without one)")

const replayRequests = 8192

// replayStream draws the request paths the way bench/stream.go draws
// miss_longtail: terms ranked by corpus frequency, contexts "" plus the
// ontology's in string order, the same typo and unknown-term shares.
func replayStream(ing *core.Ingestion, n int) []string {
	ids := ing.FlaggedIDs()
	slices.SortFunc(ids, func(a, b eks.ConceptID) int {
		if fa, fb := ing.Frequencies.RawAggregate(a), ing.Frequencies.RawAggregate(b); fa != fb {
			if fa > fb {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	terms := make([]string, 0, len(ids))
	for _, id := range ids {
		if c, ok := ing.Graph.Concept(id); ok {
			terms = append(terms, c.Name)
		}
	}
	contexts := []string{""}
	for _, c := range ing.Contexts {
		contexts = append(contexts, c.String())
	}
	slices.Sort(contexts[1:])

	rng := rand.New(rand.NewSource(7919 + 2))
	ks := []int{5, 10, 20, 50}
	out := make([]string, n)
	for i := range out {
		term := terms[rng.Intn(len(terms))]
		qctx := contexts[rng.Intn(len(contexts))]
		k := ks[rng.Intn(len(ks))]
		switch u := rng.Float64(); {
		case u < 0.05:
			b := []byte(term)
			if pos := 1 + rng.Intn(len(b)-1); rng.Intn(2) == 0 {
				b[pos] = 'a' + (b[pos]-'a'+1)%26
			} else {
				b = append(b[:pos], b[pos+1:]...)
			}
			term = string(b)
		case u < 0.06:
			term = "qzxj" + strconv.Itoa(rng.Intn(1_000_000)) + "wvkq"
		}
		out[i] = "/relax?term=" + url.QueryEscape(term) + "&context=" + url.QueryEscape(qctx) + "&k=" + strconv.Itoa(k)
	}
	return out
}

func BenchmarkMissReplay(b *testing.B) {
	if *replayBundle == "" {
		b.Skip("no -replay.bundle given")
	}
	snap, err := engine.LoadSnapshot(*replayBundle)
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	paths := replayStream(snap.Ingestion(), replayRequests)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh snapshot per pass: the first pass of a warm one would be
		// all geometry hits.
		pass, err := engine.LoadSnapshot(*replayBundle)
		if err != nil {
			b.Fatal(err)
		}
		h := server.New(pass).Handler()
		b.StartTimer()
		relaxer := pass.Relaxer()
		var total, hit, walkFill, mapped time.Duration
		var hits, walkFills, views uint64
		walked0 := relaxer.WalkedNodes()
		for _, p := range paths {
			h0, f0, r0, m0, _, _, _, _ := relaxer.GeometryCounts()
			start := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			took := time.Since(start)
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				b.Fatalf("%s: status %d: %s", p, rec.Code, rec.Body)
			}
			total += took
			h1, f1, r1, m1, _, _, _, _ := relaxer.GeometryCounts()
			switch {
			case h1 > h0:
				hit, hits = hit+took, hits+1
			case m1 > m0:
				mapped, views = mapped+took, views+1
			case f1 > f0 || r1 > r0:
				walkFill, walkFills = walkFill+took, walkFills+1
			}
		}
		ms := func(d time.Duration, n uint64) float64 { return float64(d.Microseconds()) / 1000 / float64(max(n, 1)) }
		b.ReportMetric(ms(total, uint64(len(paths))), "ms/request")
		b.ReportMetric(ms(hit, hits), "ms/hit")
		b.ReportMetric(ms(walkFill, walkFills), "ms/walk-fill")
		b.ReportMetric(ms(mapped, views), "ms/mapped")
		b.ReportMetric(float64(relaxer.WalkedNodes()-walked0)/float64(max(walkFills, 1)), "nodes/walk-fill")
		b.ReportMetric(float64(hits)/float64(len(paths)), "hits/request")
		b.ReportMetric(float64(walkFills)/float64(len(paths)), "walk-fills/request")
		b.ReportMetric(float64(views)/float64(len(paths)), "mapped/request")
		b.StopTimer()
		pass.Close()
		b.StartTimer()
	}
}

// BenchmarkOpenBundle times what a server boot or a hot reload pays to open
// a flat bundle: engine.LoadSnapshot (map, section checksums, every column
// check, snapshot assembly, the probe query) and its Close, in ms/open and
// allocs/op.
//
//	go test -run '^$' -bench OpenBundle -benchmem -benchtime 40x . -args -replay.bundle .bench_build/w100k.flat
func BenchmarkOpenBundle(b *testing.B) {
	if *replayBundle == "" {
		b.Skip("no -replay.bundle given")
	}
	log.SetOutput(io.Discard) // LoadSnapshot logs a line per open
	defer log.SetOutput(os.Stderr)
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		snap, err := engine.LoadSnapshot(*replayBundle)
		if err != nil {
			b.Fatal(err)
		}
		if err := snap.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/1000/float64(b.N), "ms/open")
}
