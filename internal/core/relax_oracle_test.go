package core

// The live kernel — flagged frontier, incremental radius growth, Equation 5
// in two halves — against the exhaustive bodies it replaced (export_test.go),
// on generated worlds, and through it the materialized and indexed paths,
// which take their candidates from the same walk.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
)

// sameResults is []Result equality to the bit: a score that differs in its
// last place, or as 0 vs -0, is a difference.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Concept != b[i].Concept || a[i].Hops != b[i].Hops ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			!slices.Equal(a[i].Instances, b[i].Instances) {
			return false
		}
	}
	return true
}

// oracleOptions are the shapes of the radius loop: no growth, growth to the
// default ceiling, growth cut short, and the self concept among the
// candidates.
var oracleOptions = []RelaxOptions{
	{Radius: 2},
	{Radius: 3, DynamicRadius: true},
	{Radius: 2, DynamicRadius: true, MaxRadius: 3},
	{Radius: 3, DynamicRadius: true, MaxRadius: 6, IncludeSelf: true},
}

var oracleKs = []int{0, 1, 5, 50, math.MaxInt32}

// oracleWorlds are built once: three synthkb seeds of different sizes (all
// multi-parent DAGs customized with shortcut edges), one of them on tf-idf
// frequencies, and a sparse world of 10,000 concepts of which only the
// original few hundred are flagged.
func oracleWorlds(t *testing.T) map[string]*Ingestion {
	t.Helper()
	oracleWorldsOnce.Do(func() {
		oracleWorldsBuilt = map[string]*Ingestion{
			"seed5":        generatedIngestion(t, 5, 1, 15, false, IngestOptions{}),
			"seed11":       generatedIngestion(t, 11, 2, 20, false, IngestOptions{}),
			"seed23-tfidf": generatedIngestion(t, 23, 1, 25, false, IngestOptions{Frequency: FrequencyOptions{UseTFIDF: true}}),
			"sparse10k":    paddedIngestion(t, 7, 1, 15, false, 10_000, IngestOptions{}),
		}
	})
	if oracleWorldsBuilt == nil {
		t.Fatal("the oracle worlds failed to build in an earlier test")
	}
	return oracleWorldsBuilt
}

var (
	oracleWorldsOnce  sync.Once
	oracleWorldsBuilt map[string]*Ingestion
)

// oracleQueries picks the query concepts of one world: the materialization
// head (so the store answers some), flagged concepts past it, and unflagged
// ones — the root, the last leaf and an inner node.
func oracleQueries(ing *Ingestion, head []eks.ConceptID) []eks.ConceptID {
	qs := slices.Clone(head)
	flagged := ing.FlaggedIDs()
	qs = append(qs, flagged[len(flagged)/3], flagged[2*len(flagged)/3])
	ids := ing.Graph.ConceptIDs()
	qs = append(qs, ids[0], ids[len(ids)-1])
	for i := len(ids) / 2; i < len(ids); i++ {
		if !ing.IsFlagged(ids[i]) {
			qs = append(qs, ids[i])
			break
		}
	}
	slices.Sort(qs)
	return slices.Compact(qs)
}

func TestLiveKernelMatchesLegacyOracle(t *testing.T) {
	for name, ing := range oracleWorlds(t) {
		sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
		// One index per world. Growth past its radius declines to the live
		// kernel, which is part of what the indexed relaxer is checked on.
		index := BuildCandidateIndex(ing, sim(), CandidateIndexOptions{Radius: 3})
		for _, opts := range oracleOptions {
			t.Run(fmt.Sprintf("%s/%+v", name, opts), func(t *testing.T) {
				t.Parallel() // the worlds are read-only, the relaxers this subtest's own
				oracle := NewRelaxer(ing, sim(), nil, opts)
				live := NewRelaxer(ing, sim(), nil, opts)

				mopts := MaterializeOptions{Relax: opts, HeadMax: 2, MaxPerQuery: -1, Contexts: ing.Contexts}.withDefaults()
				matR := NewRelaxer(ing, sim(), nil, opts)
				if !matR.SetMaterialized(MaterializeTopK(ing, sim(), mopts)) {
					t.Fatal("SetMaterialized refused a store built under the same options")
				}
				idxR := NewRelaxer(ing, sim(), nil, opts)
				if !idxR.SetCandidateIndex(index) {
					t.Fatal("SetCandidateIndex refused an index that covers the base radius")
				}

				ctxs := queryContexts(ing)
				head := headConcepts(ing, mopts)
				for qi, q := range oracleQueries(ing, head) {
					// Every k under no context and under one that rotates; and
					// for one stored concept and the flagged ones past the head,
					// every context, each at one of the ks in turn.
					type query struct {
						ctx *ontology.Context
						k   int
					}
					var queries []query
					if q == head[0] || (ing.IsFlagged(q) && !slices.Contains(head, q)) {
						for ci, c := range ctxs {
							queries = append(queries, query{c, oracleKs[(qi+ci)%len(oracleKs)]})
						}
					}
					for _, k := range oracleKs {
						queries = append(queries, query{nil, k}, query{ctxs[1+qi%(len(ctxs)-1)], k})
					}
					for _, qu := range queries {
						want, err := oracle.legacyRelaxConcept(context.Background(), q, qu.ctx, qu.k)
						if err != nil {
							t.Fatal(err)
						}
						for path, r := range map[string]*Relaxer{"live": live, "materialized": matR, "indexed": idxR} {
							if got := r.RelaxConcept(q, qu.ctx, qu.k); !sameResults(want, got) {
								t.Fatalf("concept %d ctx %q k %d: %s path differs from the oracle\noracle %+v\n%s %+v",
									q, ctxKey(qu.ctx), qu.k, path, want, path, got)
							}
						}
					}
				}
				if _, n, _ := matR.PathCounts(); n == 0 {
					t.Error("the materialized path never answered")
				}
				if _, _, n := idxR.PathCounts(); n == 0 {
					t.Error("the indexed path never answered")
				}
				if _, m, i := live.PathCounts(); m+i != 0 {
					t.Error("the live relaxer took an accelerated path")
				}
			})
		}
	}
}

// TestSelfInstancesCountTowardTarget pins the one place IncludeSelf reaches
// into the radius loop: the query concept's own instances count toward the
// growth target. Here they are all there is within the base radius, and they
// meet the target exactly; a walk that forgot them would grow the radius and
// return the far concept too — a difference k > 0 never shows, because the
// self concept ranks first and already supplies k, and the goldens never ask
// for k <= 0 under IncludeSelf.
func TestSelfInstancesCountTowardTarget(t *testing.T) {
	o := testOntology(t)
	g := eks.New()
	self := eks.Concept{ID: 3, Name: "self"}
	for i := 0; i < defaultCandidateTarget; i++ {
		self.Synonyms = append(self.Synonyms, fmt.Sprintf("self alias %d", i))
	}
	for _, c := range []eks.Concept{{ID: 1, Name: "root"}, {ID: 2, Name: "between"}, self, {ID: 4, Name: "far"}} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	// self — between — root — far: far is three hops from self.
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 1}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	store := kb.NewStore(o)
	names := append(slices.Clone(self.Synonyms), "far")
	for i, name := range names {
		if err := store.AddInstance(kb.Instance{ID: kb.InstanceID(100 + i), Concept: "Finding", Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	ing, err := Ingest(o, store, g, testCorpus(), exactMapper{g}, IngestOptions{DisableShortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ing.InstancesForConcept(3)); got != defaultCandidateTarget {
		t.Fatalf("self has %d instances, the fixture wants exactly the target %d", got, defaultCandidateTarget)
	}
	opts := RelaxOptions{Radius: 1, DynamicRadius: true, MaxRadius: 4, IncludeSelf: true}
	r := NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), nil, opts)
	got := r.RelaxConcept(3, nil, 0)
	if len(got) != 1 || got[0].Concept != 3 || got[0].Hops != 0 || got[0].Score != 1 {
		t.Fatalf("RelaxConcept(self, k=0) = %+v, want the self concept alone: its own instances meet the target at the base radius", got)
	}
	want, err := r.legacyRelaxConcept(context.Background(), 3, nil, 0)
	if err != nil || !sameResults(want, got) {
		t.Fatalf("oracle disagrees: %+v (err %v)", want, err)
	}
	// Without IncludeSelf the same query has nothing in reach and grows out
	// to the far concept.
	opts.IncludeSelf = false
	r = NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), nil, opts)
	if got := r.RelaxConcept(3, nil, 0); len(got) != 1 || got[0].Concept != 4 || got[0].Hops != 3 {
		t.Fatalf("RelaxConcept(self, k=0) without IncludeSelf = %+v, want the far concept at 3 hops", got)
	}
}

// memoOracleOptions are the radius-loop shapes the memo is replayed under:
// growth to the default ceiling (entries that stop short and get refilled),
// growth cut short with the self concept (entries that are final early).
var memoOracleOptions = []RelaxOptions{
	{Radius: 1, DynamicRadius: true},
	{Radius: 2, DynamicRadius: true, MaxRadius: 3, IncludeSelf: true},
}

// TestGeometryMemoMatchesLegacyOracle replays the flagged concepts of the
// generated worlds (an even sample of some 150 a world: the oracle is what
// takes the time) on long-lived relaxers,
// under k sequences ascending, descending and shuffled and a context that
// rotates with (concept, k) — fills, hits on entries that cover the target,
// refills of ones that do not and hits on final ones — against the
// exhaustive oracle, to the bit. The same replay runs on a relaxer whose
// budget holds one entry a shard, where most queries evict.
func TestGeometryMemoMatchesLegacyOracle(t *testing.T) {
	for name, ing := range oracleWorlds(t) {
		for _, opts := range memoOracleOptions {
			t.Run(fmt.Sprintf("%s/%+v", name, opts), func(t *testing.T) {
				t.Parallel()
				sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
				oracle := NewRelaxer(ing, sim(), nil, opts)
				roomy, tight := NewRelaxer(ing, sim(), nil, opts), NewRelaxer(ing, sim(), nil, opts)
				ctxs := queryContexts(ing)
				flagged := ing.FlaggedIDs()
				if stride := len(flagged) / 150; stride > 1 {
					sampled := flagged[:0]
					for i := 0; i < len(flagged); i += stride {
						sampled = append(sampled, flagged[i])
					}
					flagged = sampled
				}

				type key struct {
					q eks.ConceptID
					k int
				}
				want := map[key][]Result{}
				ctxOf := func(qi, ki int) *ontology.Context { return ctxs[(qi*len(oracleKs)+ki)%len(ctxs)] }
				var heaviest int64
				for qi, q := range flagged {
					for ki, k := range oracleKs {
						res, err := oracle.legacyRelaxConcept(context.Background(), q, ctxOf(qi, ki), k)
						if err != nil {
							t.Fatal(err)
						}
						want[key{q, k}] = res
					}
					g, err := oracle.geometry(context.Background(), q, math.MaxInt, &relaxScratch{})
					if err != nil {
						t.Fatal(err)
					}
					heaviest = max(heaviest, g.bytes())
				}
				tight.setGeometryBudget(heaviest * lruShards)

				// oracleKs ascending (so targets outgrow stored walks), then
				// descending, then shuffled.
				for _, kis := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {3, 0, 4, 1, 2}} {
					for _, ki := range kis {
						for qi, q := range flagged {
							k := oracleKs[ki]
							for _, r := range []*Relaxer{roomy, tight} {
								if got := r.RelaxConcept(q, ctxOf(qi, ki), k); !sameResults(want[key{q, k}], got) {
									t.Fatalf("k order %v, tight budget %v: concept %d ctx %q k %d differs from the oracle\noracle %+v\nmemo   %+v",
										kis, r == tight, q, ctxKey(ctxOf(qi, ki)), k, want[key{q, k}], got)
								}
							}
						}
					}
				}

				hits, fills, refills, evictions, bytes := roomy.GeometryCounts()
				if fills != uint64(len(flagged)) || hits == 0 || evictions != 0 {
					t.Errorf("roomy memo: %d fills for %d concepts, %d hits, %d evictions", fills, len(flagged), hits, evictions)
				}
				if opts.MaxRadius == 0 && refills == 0 {
					t.Error("growing to the default ceiling, no target outgrew a stored walk: refills are not exercised")
				}
				if accounted, held, _, ok := roomy.geo.audit(); !ok || accounted != held || accounted != bytes {
					t.Errorf("roomy memo accounts for %d bytes, holds %d, reports %d (consistent: %v)", accounted, held, bytes, ok)
				}
				_, tightFills, _, tightEvictions, tightBytes := tight.GeometryCounts()
				if tightEvictions == 0 || tightFills <= fills || tightBytes > heaviest*lruShards {
					t.Errorf("tight memo: %d fills (roomy %d), %d evictions, %d bytes under a budget of %d",
						tightFills, fills, tightEvictions, tightBytes, heaviest*lruShards)
				}
			})
		}
	}
}

// TestGeometryMemoHammer has eight goroutines ask four concepts under mixed
// k and contexts at once: concurrent fills of one concept, refills racing
// hits, all against answers taken beforehand from a relaxer of its own. Run
// under -race.
func TestGeometryMemoHammer(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	opts := RelaxOptions{Radius: 1, DynamicRadius: true}
	sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
	ref, shared := NewRelaxer(ing, sim(), nil, opts), NewRelaxer(ing, sim(), nil, opts)
	// Two entries a shard at most: evictions join the races.
	g, err := ref.geometry(context.Background(), ing.FlaggedIDs()[0], math.MaxInt, &relaxScratch{})
	if err != nil {
		t.Fatal(err)
	}
	shared.setGeometryBudget(2 * g.bytes() * lruShards)
	ctxs := queryContexts(ing)
	concepts := ing.FlaggedIDs()[:4]
	type query struct {
		q   eks.ConceptID
		ctx *ontology.Context
		k   int
	}
	var queries []query
	var want [][]Result
	for qi, q := range concepts {
		for ki, k := range oracleKs {
			qu := query{q, ctxs[(qi+ki)%len(ctxs)], k}
			queries = append(queries, qu)
			want = append(want, ref.RelaxConcept(qu.q, qu.ctx, qu.k))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				i := (w*7 + round*3) % len(queries)
				if got := shared.RelaxConcept(queries[i].q, queries[i].ctx, queries[i].k); !sameResults(want[i], got) {
					t.Errorf("goroutine %d round %d: concept %d k %d differs under concurrency", w, round, queries[i].q, queries[i].k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if accounted, held, _, ok := shared.geo.audit(); !ok || accounted != held {
		t.Errorf("after the hammer the memo accounts for %d bytes and holds %d (consistent: %v)", accounted, held, ok)
	}
}

// TestGeometryMemoIsPerRelaxer runs two relaxers over one ingestion that
// differ in RelaxOptions, and two that differ in UsePathWeight, interleaved:
// each must answer as its own oracle does — a geometry walked under one's
// radius, or weighted under one's measure, must never serve the other — and
// each walks every concept itself.
func TestGeometryMemoIsPerRelaxer(t *testing.T) {
	ing := oracleWorlds(t)["seed5"]
	plain := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
	icOnly := func() *Similarity {
		s := plain()
		s.UsePathWeight = false
		return s
	}
	for name, pair := range map[string][2]func() *Relaxer{
		"options": {
			func() *Relaxer { return NewRelaxer(ing, plain(), nil, RelaxOptions{Radius: 1}) },
			func() *Relaxer { return NewRelaxer(ing, plain(), nil, RelaxOptions{Radius: 3, IncludeSelf: true}) },
		},
		"path weight": {
			func() *Relaxer { return NewRelaxer(ing, plain(), nil, RelaxOptions{Radius: 2}) },
			func() *Relaxer { return NewRelaxer(ing, icOnly(), nil, RelaxOptions{Radius: 2}) },
		},
	} {
		a, b := pair[0](), pair[1]()
		oracleA, oracleB := pair[0](), pair[1]()
		concepts := ing.FlaggedIDs()[:20]
		differ := false
		for _, q := range concepts {
			for pass := 0; pass < 2; pass++ {
				wantA, _ := oracleA.legacyRelaxConcept(context.Background(), q, nil, 5)
				wantB, _ := oracleB.legacyRelaxConcept(context.Background(), q, nil, 5)
				if gotA, gotB := a.RelaxConcept(q, nil, 5), b.RelaxConcept(q, nil, 5); !sameResults(wantA, gotA) || !sameResults(wantB, gotB) {
					t.Fatalf("%s: concept %d pass %d: a relaxer differs from its own oracle", name, q, pass)
				}
				differ = differ || !sameResults(wantA, wantB)
			}
		}
		if !differ {
			t.Fatalf("%s: the two relaxers agree on every query; the test shows nothing", name)
		}
		for _, r := range []*Relaxer{a, b} {
			if hits, fills, _, _, _ := r.GeometryCounts(); fills != uint64(len(concepts)) || hits != uint64(len(concepts)) {
				t.Errorf("%s: a relaxer filled %d and hit %d of %d concepts asked twice", name, fills, hits, len(concepts))
			}
		}
	}
}

// TestWeightedLRUAccounting drives the cache the memo and the subsumer
// vectors share through 10,000 random puts, replacements and gets with
// random weights — some heavier than a shard's budget — and checks after
// every thousand that the weight accounted for is the weight held, within
// budget, and that each held entry is the last value put for its key.
func TestWeightedLRUAccounting(t *testing.T) {
	const budget = 64 << 10
	c := newWeightedLRU[int](budget)
	rng := rand.New(rand.NewSource(18))
	last := map[eks.ConceptID]int{}
	for op := 1; op <= 10_000; op++ {
		id := eks.ConceptID(rng.Intn(400))
		if rng.Intn(3) == 0 {
			if v, ok := c.get(id); ok && v != last[id] {
				t.Fatalf("op %d: get(%d) = %d, the last value put was %d", op, id, v, last[id])
			}
			continue
		}
		weight := int64(1 + rng.Intn(budget/lruShards/4))
		if rng.Intn(50) == 0 {
			weight = budget/lruShards + 1 + int64(rng.Intn(100)) // never admitted
		} else {
			last[id] = op
		}
		c.put(id, op, weight)
		if op%1000 == 0 {
			accounted, held, entries, ok := c.audit()
			if !ok || accounted != held || accounted != c.weight() || accounted > budget || entries == 0 {
				t.Fatalf("op %d: accounts for %d, holds %d in %d entries, budget %d (consistent: %v)", op, accounted, held, entries, budget, ok)
			}
		}
	}
	if c.evictions.Load() == 0 {
		t.Error("10,000 operations over a small budget evicted nothing")
	}
}
