package medrelax

// The allocation profile of Algorithm 2's uncached request path, tier by
// tier, which CI's benchmem gate pins. Serving latency and throughput are
// measured end to end by `bash bench/run.sh`.

import (
	"sync"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
)

var (
	accelOnce sync.Once
	accelMatR *core.Relaxer
	accelIdxR *core.Relaxer
	accelIdx  *core.CandidateIndex
)

// accelRelaxers builds (once) two relaxers over the shared system's
// ingestion: one serving from a full-head materialized top-k store, one
// through the candidate index's stored geometries. Both are byte-identical to
// live traversal (TestAcceleratedPathsMatchGolden); here they are timed.
func accelRelaxers(tb testing.TB) (*core.Relaxer, *core.Relaxer) {
	tb.Helper()
	sys := sharedSystem(tb)
	accelOnce.Do(func() {
		ing := sys.Ingestion
		sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
		ropts := sys.Config.Relax
		mat := core.MaterializeTopK(ing, sim, core.MaterializeOptions{
			Enabled: true, Relax: ropts,
			HeadFraction: 1, HeadMax: -1,
			Contexts: ing.Contexts,
		})
		accelIdx = core.BuildCandidateIndex(ing, sim, core.CandidateIndexOptions{
			Enabled: true, Radius: ropts.MaxRadius,
		})
		accelMatR = core.NewRelaxer(ing, sim, sys.Mapper, ropts)
		if !accelMatR.SetMaterialized(mat) {
			panic("bench: materialized store refused by a same-options relaxer")
		}
		accelIdxR = core.NewRelaxer(ing, sim, sys.Mapper, ropts)
		if !accelIdxR.SetCandidateIndex(accelIdx) {
			panic("bench: candidate index refused by a same-options relaxer")
		}
	})
	return accelMatR, accelIdxR
}

// BenchmarkRelaxUncached measures the uncached request path through each
// serving tier over the same query mix: the kernel over a geometry the memo
// holds (live/hit) and over a view of the candidate index's columns
// (indexed/mapped: the same scoring, and a view allocates nothing, so the same
// figures), a request on a relaxer that has never seen the concept or its
// context (live/fill walks and builds the context's IC plane; indexed/first
// builds the plane and takes a view), and the materialized top-k store. The CI benchmem
// smoke step pins the allocation profile of every tier — an alloc regression
// on the miss path fails the build before it reaches a latency chart.
func BenchmarkRelaxUncached(b *testing.B) {
	sys := sharedSystem(b)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, 32)
	if len(queries) == 0 {
		b.Fatal("no queries selected")
	}
	matR, idxR := accelRelaxers(b)
	cases := []struct {
		name string
		r    *core.Relaxer
	}{
		{"live/hit", sys.Engine.Relaxer()},
		{"indexed/mapped", idxR},
		{"materialized", matR},
	}
	for _, q := range queries { // every geometry filled before a hit is timed
		sys.Engine.Relaxer().RelaxConcept(q.Concept, q.Ctx, 10)
		idxR.RelaxConcept(q.Concept, q.Ctx, 10)
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				c.r.RelaxConcept(q.Concept, q.Ctx, 10)
			}
		})
	}
	ing := sys.Ingestion
	// One similarity for all the fresh relaxers: its subsumer vectors are
	// warm, as a serving process's are; the geometry is new each time, and so
	// is the query context's IC plane.
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	for _, c := range []struct {
		name  string
		fresh func() *core.Relaxer
	}{
		{"live/fill", func() *core.Relaxer { return core.NewRelaxer(ing, sim, sys.Mapper, sys.Config.Relax) }},
		{"indexed/first", func() *core.Relaxer {
			r := core.NewRelaxer(ing, sim, sys.Mapper, sys.Config.Relax)
			r.SetCandidateIndex(accelIdx)
			return r
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			fresh := c.fresh()
			for _, q := range queries {
				fresh.RelaxConcept(q.Concept, q.Ctx, 10)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh = c.fresh()
				b.StartTimer()
				q := queries[i%len(queries)]
				fresh.RelaxConcept(q.Concept, q.Ctx, 10)
			}
		})
	}
}
