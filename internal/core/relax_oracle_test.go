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

// TestTruncatedEntriesServeOrDeclineToTheOracle sweeps the depth a store is
// cut at against the k a request asks: whether an entry proves the k inside
// its stored prefix and serves, or declines to the kernel, the answer is the
// oracle's to the bit, the response names the path that gave it and a
// truncation decline is counted once. The stored prefix itself — selected by
// heap when the entry is cut — is the uncut store's sorted prefix, score bits
// and slot words.
func TestTruncatedEntriesServeOrDeclineToTheOracle(t *testing.T) {
	opts := RelaxOptions{Radius: 3, DynamicRadius: true}.withDefaults()
	ks := []int{0, 1, 5, 50, 64, 65, 1000}
	for name, ing := range oracleWorlds(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
			oracle := NewRelaxer(ing, sim(), nil, opts)
			store := func(depth int) *Materialized {
				return MaterializeTopK(ing, sim(), MaterializeOptions{Relax: opts, HeadMax: 2, MaxPerQuery: depth, Contexts: ing.Contexts})
			}
			full := store(-1)
			head := headConcepts(ing, MaterializeOptions{HeadMax: 2}.withDefaults())
			ctxs := queryContexts(ing)
			type query struct {
				q   eks.ConceptID
				ctx *ontology.Context
				k   int
			}
			// Every head concept under every context, each context at one k in
			// turn, and every k under no context and one that rotates.
			var queries []query
			for qi, q := range head {
				for ci, c := range ctxs {
					queries = append(queries, query{q, c, ks[(qi+ci)%len(ks)]})
				}
				for _, k := range ks {
					queries = append(queries, query{q, nil, k}, query{q, ctxs[1+qi], k})
				}
			}
			wants := make([][]Result, len(queries))
			for i, qu := range queries {
				var err error
				if wants[i], err = oracle.legacyRelaxConcept(context.Background(), qu.q, qu.ctx, qu.k); err != nil {
					t.Fatal(err)
				}
			}
			for _, depth := range []int{-1, 1, 7, 64} {
				m := store(depth)
				if m.Entries() != full.Entries() {
					t.Fatalf("depth %d: %d entries, the uncut store %d", depth, m.Entries(), full.Entries())
				}
				cut := 0
				for i := 0; i < m.Entries(); i++ {
					e, f := m.entry(i), full.entry(i)
					n := len(f.cands)
					if depth > 0 && n > depth {
						n = depth
						cut++
					}
					if e.complete != (n == len(f.cands)) || !slices.Equal(e.cands, f.cands[:n]) || !slices.Equal(e.counts, f.counts) ||
						!slices.EqualFunc(e.scores, f.scores[:n], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("depth %d: entry %d is not the first %d of the uncut entry's %d candidates", depth, i, n, len(f.cands))
					}
				}
				if depth == 1 && cut == 0 {
					t.Fatal("depth 1 cut no entry: the sweep does not reach the selection")
				}
				r := NewRelaxer(ing, sim(), nil, opts)
				if !r.SetMaterialized(m) {
					t.Fatalf("depth %d: SetMaterialized refused a store built under the same options", depth)
				}
				var served, declined uint64
				for i, qu := range queries {
					resp := r.Relax(context.Background(), Request{Concept: qu.q, UseConcept: true, Ctx: qu.ctx, K: qu.k})
					if resp.Err != nil || !sameResults(wants[i], resp.Results) {
						t.Fatalf("depth %d, concept %d ctx %q k %d (%s, decline %q): differs from the oracle\noracle %+v\ngot %+v (%v)",
							depth, qu.q, ctxKey(qu.ctx), qu.k, resp.Path.MetricName(), resp.Decline, wants[i], resp.Results, resp.Err)
					}
					// Every query names a stored entry, so the store serves it or
					// declines it for its depth and for nothing else.
					switch {
					case resp.Path == PathMaterialized && resp.Decline == "":
						served++
					case resp.Path != PathMaterialized && resp.Decline == DeclineTruncated:
						declined++
					default:
						t.Fatalf("depth %d, concept %d ctx %q k %d: path %s with decline %q", depth, qu.q, ctxKey(qu.ctx), qu.k, resp.Path.MetricName(), resp.Decline)
					}
				}
				if _, mat, _ := r.PathCounts(); mat != served || r.TruncatedDeclines() != declined {
					t.Errorf("depth %d: counters say %d served, %d truncated; the responses %d and %d", depth, mat, r.TruncatedDeclines(), served, declined)
				}
				if served == 0 || (cut == 0) != (declined == 0) {
					t.Errorf("depth %d: %d entries cut, %d requests served, %d declined", depth, cut, served, declined)
				}
			}
		})
	}
}

// sameHits is []scoredHit equality to the bit, slot for slot and hop for hop.
func sameHits(a, b []scoredHit) bool {
	return slices.EqualFunc(a, b, func(x, y scoredHit) bool {
		return math.Float64bits(x.score) == math.Float64bits(y.score) && x.slot == y.slot && x.hops == y.hops
	})
}

// checkRankedPrefix holds rankedPrefix(hits, n) to the sorted prefix. hits
// is left as it was.
func checkRankedPrefix(t *testing.T, hits []scoredHit, n int) {
	t.Helper()
	sorted := slices.Clone(hits)
	slices.SortFunc(sorted, rankScored)
	want := sorted[:min(n, len(hits))]
	if got := rankedPrefix(slices.Clone(hits), n); !sameHits(got, want) {
		t.Fatalf("%d hits, n %d: selected %v, sorted %v", len(hits), n, got, want)
	}
}

// TestRankedPrefixIsTheSortedPrefix holds the bounded selection a cut entry
// and a k-bounded answer are built by against the sort, on hits with few
// distinct scores — signed zeros and NaNs among them, and sets where every
// score is 0 — where only the slot tie-break orders most pairs.
func TestRankedPrefixIsTheSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	negZero, nan := math.Copysign(0, -1), math.NaN()
	palettes := [][]float64{
		{0.75, 0.5, 0.5000000000000001, 0, negZero, 0.25},
		{0.75, nan, 0, negZero, 1, nan},
		{0},
		{0, negZero},
		{nan},
	}
	for _, scores := range palettes {
		for _, size := range []int{0, 1, 2, 3, 64, 943} {
			hits := make([]scoredHit, size)
			for i, slot := range rng.Perm(size) {
				hits[i] = scoredHit{score: scores[rng.Intn(len(scores))], slot: int32(slot), hops: int32(1 + rng.Intn(8))}
			}
			for _, n := range []int{0, 1, size / 2, max(0, size-1), size, size + 1} {
				checkRankedPrefix(t, hits, n)
			}
		}
	}
}

// FuzzRankedPrefix draws scores from a small set — NaN and ±0 among them —
// over distinct slots, the hits' invariant, and holds the selection to the
// sorted prefix, to the bit.
func FuzzRankedPrefix(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(3))
	f.Add([]byte{2, 2, 2, 2, 3, 3, 3}, uint8(1))
	f.Add([]byte{4, 0, 4, 1, 4, 2}, uint8(6))
	f.Add([]byte{}, uint8(0))
	scores := []float64{0, math.Copysign(0, -1), 1, math.NaN(), 0.5, 0.25, 0.5000000000000001, math.Inf(-1)}
	f.Fuzz(func(t *testing.T, draws []byte, n uint8) {
		if len(draws) > 2048 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(draws))))
		hits := make([]scoredHit, len(draws))
		for i, slot := range rng.Perm(len(draws)) {
			b := draws[i]
			hits[i] = scoredHit{score: scores[int(b)%len(scores)], slot: int32(slot), hops: int32(b >> 4)}
		}
		checkRankedPrefix(t, hits, int(n))
	})
}

// sortedCover is rankResults' reference: every hit sorted by rankScored,
// then the shortest prefix whose instances cover k, or all of them when
// k <= 0 (an empty list when there are no hits; nil for k > 0).
func (r *Relaxer) sortedCover(scored []scoredHit, k int) []Result {
	slices.SortFunc(scored, rankScored)
	var out []Result
	if k <= 0 {
		out = make([]Result, 0, len(scored))
	}
	for instances := 0; len(out) < len(scored) && (k <= 0 || instances < k); {
		h := scored[len(out)]
		id, inst := r.ing.flaggedAt(h.slot)
		out = append(out, Result{Concept: id, Score: h.score, Hops: int(h.hops), Instances: inst})
		instances += len(inst)
	}
	return out
}

// TestRankResultsIsTheSortedCover holds rankResults to the sort-then-cover-k
// reference over a generated world's flagged slots, for every k the kernel
// differentials use and k near the hit count.
func TestRankResultsIsTheSortedCover(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	r := NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), nil, RelaxOptions{})
	rng := rand.New(rand.NewSource(38))
	scores := []float64{0.75, 0.5, 0, math.Copysign(0, -1), math.NaN()}
	flagged := len(ing.FlaggedIDs())
	for _, size := range []int{0, 1, 5, 60, flagged} {
		hits := make([]scoredHit, size)
		for i, slot := range rng.Perm(flagged)[:size] {
			hits[i] = scoredHit{score: scores[rng.Intn(len(scores))], slot: int32(slot), hops: int32(1 + rng.Intn(4))}
		}
		for _, k := range append([]int{size - 1, size, size + 1, -1}, oracleKs...) {
			want := r.sortedCover(slices.Clone(hits), k)
			if got := r.rankResults(slices.Clone(hits), k); !sameResults(got, want) {
				t.Fatalf("%d hits, k %d: ranked %+v, sorted and covered %+v", size, k, got, want)
			}
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

				hits, fills, refills, _, evictions, bytes, _, _ := roomy.GeometryCounts()
				if fills != uint64(len(flagged)) || hits == 0 || evictions != 0 {
					t.Errorf("roomy memo: %d fills for %d concepts, %d hits, %d evictions", fills, len(flagged), hits, evictions)
				}
				if opts.MaxRadius == 0 && refills == 0 {
					t.Error("growing to the default ceiling, no target outgrew a stored walk: refills are not exercised")
				}
				if accounted, held, _, ok := roomy.geo.audit(); !ok || accounted != held || accounted != bytes {
					t.Errorf("roomy memo accounts for %d bytes, holds %d, reports %d (consistent: %v)", accounted, held, bytes, ok)
				}
				_, tightFills, _, _, tightEvictions, tightBytes, _, _ := tight.GeometryCounts()
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
			if hits, fills, _, _, _, _, _, _ := r.GeometryCounts(); fills != uint64(len(concepts)) || hits != uint64(len(concepts)) {
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

// The IC planes and the one geometry scorer over them, against Similarity.Sim
// and the context half they replaced (export_test.go), and the candidate
// index as a fill source of the memo against the walk.

// noLabelContext subsumes no corpus label under any generated ontology: a
// frequency table answers it from the aggregate.
var noLabelContext = &ontology.Context{Domain: "NoSuchDomain", Relationship: "noSuchRelationship", Range: "NoSuchRange"}

// planeSources are the measures the planes are checked under: every ICSource
// the tree has, and the frequency table once more without Equation 4.
func planeSources(ing *Ingestion) map[string]*Similarity {
	icOnly := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	icOnly.UsePathWeight = false
	return map[string]*Similarity{
		"frequencies":     NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology),
		"intrinsic":       NewSimilarity(ing.Graph, NewIntrinsicIC(ing.Graph), ing.Ontology),
		"without-context": NewSimilarity(ing.Graph, WithoutContext(ing.Frequencies), ing.Ontology),
		"no-path-weight":  icOnly,
	}
}

// TestPlanesHoldTheSourceIC pins every plane value: under every ontology
// context, none, and one no label answers, for every ICSource, the plane of a
// relaxer holds at each rank the bits ICSource.IC returns for the concept
// ranked there; the domain ranks the flagged concepts at their slots and is
// closed upwards, so no meet of two flagged concepts falls outside it.
func TestPlanesHoldTheSourceIC(t *testing.T) {
	for name, ing := range oracleWorlds(t) {
		fg := ing.Graph.FlatData()
		for node, rk := range ing.icRank {
			switch {
			case rk >= 0 && ing.icDomain[rk] != fg.IDs[node]:
				t.Fatalf("%s: node %d has rank %d, where the domain holds concept %d", name, node, rk, ing.icDomain[rk])
			case ing.slots[node] >= 0 && rk != ing.slots[node]:
				t.Fatalf("%s: flagged node %d in slot %d has rank %d", name, node, ing.slots[node], rk)
			case rk >= 0:
				for _, up := range fg.UpTo[fg.UpOff[node]:fg.UpOff[node+1]] {
					if ing.icRank[up] < 0 {
						t.Fatalf("%s: node %d is ranked and its parent %d is not", name, node, up)
					}
				}
			}
		}
		ctxs := append(queryContexts(ing), noLabelContext)
		for source, sim := range planeSources(ing) {
			r := NewRelaxer(ing, sim, nil, RelaxOptions{})
			for _, qctx := range ctxs {
				ic := r.icUnder(qctx)
				if len(ic.plane) != len(ing.icDomain) {
					t.Fatalf("%s/%s ctx %q: plane of %d values over a domain of %d", name, source, ctxKey(qctx), len(ic.plane), len(ing.icDomain))
				}
				for rk, id := range ing.icDomain {
					if want := sim.IC.IC(id, qctx, sim.Ontology); math.Float64bits(ic.plane[rk]) != math.Float64bits(want) {
						t.Fatalf("%s/%s ctx %q: plane holds %v for concept %d, the source says %v", name, source, ctxKey(qctx), ic.plane[rk], id, want)
					}
				}
			}
			if _, _, _, _, _, _, planes, bytes := r.GeometryCounts(); planes != len(ctxs) || bytes != int64(8*len(ctxs)*len(ing.icDomain)) {
				t.Errorf("%s/%s: %d planes of %d bytes after %d contexts over %d ranked nodes", name, source, planes, bytes, len(ctxs), len(ing.icDomain))
			}
		}
	}
}

// allPairsGeometry is a geometry whose one level holds every flagged concept
// but q, so one scoreGeometry call scores q against them all.
func allPairsGeometry(ing *Ingestion, sim *Similarity, q eks.ConceptID) *geometry {
	b := newGeometryBuilder(ing, sim.meetsFrom(q), len(ing.maps.Flagged))
	b.endLevel()
	for slot, id := range ing.maps.Flagged {
		if id != q {
			b.add(int32(slot))
		}
	}
	b.endLevel()
	return b.g
}

// TestPlaneScoredMatchesSim scores query concepts — an even sample of the
// flagged ones, thinner under -short, and three unflagged: the root, a leaf,
// an inner node — against every flagged concept through scoreGeometry and
// wants Similarity.Sim's bits, under a context that rotates with the query so
// all are met, under none and under one no label answers, for every source;
// every LCS the builder emits is ranked. The same queries score the same on a
// relaxer whose ingestion ranks nothing (every LCS and unflagged query IC
// through the fallback) and on one past its plane bound (every IC through it).
func TestPlaneScoredMatchesSim(t *testing.T) {
	for name, ing := range oracleWorlds(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ids := ing.Graph.ConceptIDs()
			sample := 48
			if testing.Short() {
				sample = 8
			}
			flagged := ing.FlaggedIDs()
			qs := []eks.ConceptID{ids[0], ids[len(ids)-1], oracleQueries(ing, nil)[0]}
			for i := 0; i < len(flagged); i += max(1, len(flagged)/sample) {
				qs = append(qs, flagged[i])
			}
			unranked := *ing
			unranked.icRank = make([]int32, len(ing.icRank))
			for i := range unranked.icRank {
				unranked.icRank[i] = -1
			}
			ctxs := queryContexts(ing)
			for source, sim := range planeSources(ing) {
				planed := NewRelaxer(ing, sim, nil, RelaxOptions{})
				blind := NewRelaxer(&unranked, sim, nil, RelaxOptions{})
				bounded := NewRelaxer(ing, sim, nil, RelaxOptions{})
				full := map[planeKey][]float64{}
				for i := 0; i < maxResolvedContexts; i++ {
					full[planeKey{ctx: ontology.Context{Domain: fmt.Sprint(i)}}] = nil
				}
				bounded.planes.Store(&full)
				asked := qs
				if source != "frequencies" {
					asked = qs[:min(len(qs), 3+sample/4)]
				}
				for qi, q := range asked {
					g := allPairsGeometry(ing, sim, q)
					var one [1]int32
					for _, h := range g.hits {
						for _, node := range g.lcsOf(h, &one) {
							if ing.icRank[node] < 0 {
								t.Fatalf("%s: the meet of %d and %d names node %d, which the IC domain does not rank", source, q, ing.maps.Flagged[h.slot], node)
							}
						}
					}
					for _, qctx := range []*ontology.Context{ctxs[1+qi%(len(ctxs)-1)], nil, noLabelContext} {
						for which, r := range map[string]*Relaxer{"planed": planed, "unranked": blind, "past the bound": bounded} {
							scored, err := r.scoreGeometry(context.Background(), q, qctx, g, 1, &relaxScratch{})
							if err != nil {
								t.Fatal(err)
							}
							for _, h := range scored {
								b := ing.maps.Flagged[h.slot]
								if want := sim.Sim(q, b, qctx); math.Float64bits(h.score) != math.Float64bits(want) {
									t.Fatalf("%s, %s relaxer: sim(%d, %d) under %q scored %v, Sim says %v", source, which, q, b, ctxKey(qctx), h.score, want)
								}
							}
						}
					}
				}
				if _, _, _, _, _, _, planes, _ := bounded.GeometryCounts(); planes != maxResolvedContexts {
					t.Errorf("%s: a relaxer at its bound of %d planes holds %d", source, maxResolvedContexts, planes)
				}
			}
		})
	}
}

// sameGeometryTo reports how a view of the candidate index differs from the
// walked geometry of the same concept out to horizon hops: hits, level ends
// and counts equal position for position, and the shapes and tied sets both
// number — each a prefix of the other's, the walk or the index having gone
// further — equal too, every hit within the horizon naming one of those.
func sameGeometryTo(view, walked *geometry, horizon int) error {
	n := int(walked.levelEnd[horizon])
	if !slices.Equal(view.levelEnd, walked.levelEnd[:horizon+1]) || !slices.Equal(view.counts, walked.counts[:len(view.counts)]) {
		return fmt.Errorf("level ends %v counts %v, walked %v %v", view.levelEnd, view.counts, walked.levelEnd, walked.counts)
	}
	if !slices.Equal(view.hits, walked.hits[:n]) {
		return fmt.Errorf("hits %v, walked %v", view.hits, walked.hits[:n])
	}
	shapes := min(len(view.shapes), len(walked.shapes))
	sets := min(len(view.tiedOff), len(walked.tiedOff)) - 1
	if !slices.Equal(view.shapes[:shapes], walked.shapes[:shapes]) {
		return fmt.Errorf("shapes %v, walked %v", view.shapes, walked.shapes)
	}
	for i := 0; i < sets; i++ {
		if got, want := view.tied[view.tiedOff[i]:view.tiedOff[i+1]], walked.tied[walked.tiedOff[i]:walked.tiedOff[i+1]]; !slices.Equal(got, want) {
			return fmt.Errorf("tied set %d is %v, walked %v", i, got, want)
		}
	}
	for _, h := range view.hits {
		if h.lcs != geoNoMeet && (int(h.shape) >= shapes || int(^h.lcs) >= sets) {
			return fmt.Errorf("hit %+v names a shape or tied set past the %d and %d both hold", h, shapes, sets)
		}
	}
	return nil
}

// TestIndexBornGeometryMatchesWalk takes indexed concepts' geometries as views
// of the candidate index and wants the walk's, field for field and in order —
// hits, level ends, per-radius counts, shapes, tied sets, finality — out to
// the index's horizon, under an index that reaches the relaxer's ceiling and
// one that stops short of it. Then, per sampled concept, request sequences on
// fresh relaxers against the exhaustive oracle (legacyRelaxConcept): a fresh
// relaxer gives the oracle's results for any one request, off the index
// exactly when the walk's own counts stop the request inside the index's
// horizon; a target the short index declines is walked, and a small target
// after it hits the walk's entry; a small target is served a view, the large
// one after it is walked, and the concept stays on the live path.
func TestIndexBornGeometryMatchesWalk(t *testing.T) {
	for name, ing := range oracleWorlds(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
			copts := CandidateIndexOptions{Radius: 2}
			short := BuildCandidateIndex(ing, sim, copts)
			ctxs := queryContexts(ing)
			for oi, opts := range []RelaxOptions{
				{Radius: 1, DynamicRadius: true, MaxRadius: 2, IncludeSelf: true},
				{Radius: 2},
				{Radius: 1, DynamicRadius: true, MaxRadius: 5},
				{Radius: 2, DynamicRadius: true, MaxRadius: 4, IncludeSelf: true},
			} {
				fresh := func() *Relaxer {
					r := NewRelaxer(ing, sim, nil, opts)
					if !r.SetCandidateIndex(short) {
						t.Fatal("SetCandidateIndex refused an index that covers the base radius")
					}
					return r
				}
				r := fresh()
				horizon := min(short.Radius(), r.maxRadius())
				// Every indexed concept under the first options, an even sample
				// under the rest and under -short: the walks are what takes time.
				concepts := short.d.Concepts
				if sample := 96; oi > 0 || testing.Short() {
					sampled := make([]eks.ConceptID, 0, sample)
					for i := 0; i < len(concepts); i += max(1, len(concepts)/sample) {
						sampled = append(sampled, concepts[i])
					}
					concepts = sampled
				}
				for _, q := range concepts {
					walked, err := r.geometry(context.Background(), q, math.MaxInt, &relaxScratch{})
					if err != nil {
						t.Fatal(err)
					}
					sc := &relaxScratch{}
					view, held := r.indexedGeometry(q, 0, sc)
					if view == nil || !held {
						t.Fatalf("%+v: the index holds concept %d and declined a target of 0", opts, q)
					}
					if !view.indexed || walked.indexed || view.reached != 0 || view.bytes() != 0 || view.final != (horizon == r.maxRadius()) ||
						len(view.levelEnd) != horizon+1 || len(view.counts) != horizon-opts.Radius+1 {
						t.Fatalf("%+v concept %d: the view %+v, walked %+v", opts, q, view, walked)
					}
					if err := sameGeometryTo(view, walked, horizon); err != nil {
						t.Fatalf("%+v concept %d: the view's %v", opts, q, err)
					}
					// Past what the horizon supplies, only a final geometry answers.
					final, beyond := view.final, int(view.counts[len(view.counts)-1])+1
					if again, held := r.indexedGeometry(q, beyond, sc); !held || (again != nil) != final {
						t.Fatalf("%+v concept %d: a target of %d instances, one past the horizon's, answered %v by a geometry final=%v",
							opts, q, beyond, !final, final)
					}
				}

				oracle := NewRelaxer(ing, sim, nil, opts)
				outgrown := 0
				stride := max(1, len(concepts)/24)
				for qi := 0; qi < len(concepts); qi += stride {
					q, qctx := concepts[qi], ctxs[qi%len(ctxs)]
					wants := map[int][]Result{} // the oracle's answer per k, asked once
					ask := func(r *Relaxer, k int) ServePath {
						t.Helper()
						want, asked := wants[k]
						if !asked {
							var err error
							if want, err = oracle.legacyRelaxConcept(context.Background(), q, qctx, k); err != nil {
								t.Fatal(err)
							}
							wants[k] = want
						}
						got, path, err := r.relaxConceptPath(context.Background(), q, qctx, k, &relaxScratch{})
						if err != nil || !sameResults(want, got) {
							t.Fatalf("%+v concept %d ctx %q k %d: differs from the exhaustive oracle (err %v)\noracle %+v\ngot    %+v", opts, q, ctxKey(qctx), k, err, want, got)
						}
						return path
					}
					walked, err := r.geometry(context.Background(), q, math.MaxInt, &relaxScratch{})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range oracleKs {
						target := k
						if k <= 0 {
							target = defaultCandidateTarget
						}
						stop, err := r.stopRadius(context.Background(), walked.counts, target)
						if err != nil {
							t.Fatal(err)
						}
						want := PathLive
						if stop <= horizon {
							want = PathIndexed
						}
						if got := ask(fresh(), k); got != want {
							t.Fatalf("%+v concept %d k %d: a fresh relaxer took the %v path; the walk stops at radius %d, the index reaches %d", opts, q, k, got, stop, horizon)
						}
					}
					if horizon == r.maxRadius() {
						continue // the index answers every target: nothing to outgrow
					}
					large, small := fresh(), fresh()
					if ask(large, math.MaxInt32) != PathLive || ask(large, 1) != PathLive {
						t.Fatalf("%+v concept %d: a target past the index's horizon, or the small one after it, was not served by the walk", opts, q)
					}
					// The index holds the concept and fell short: the walk is a refill.
					if hits, fills, refills, mapped, _, _, _, _ := large.GeometryCounts(); hits != 1 || fills != 0 || refills != 1 || mapped != 0 {
						t.Fatalf("%+v concept %d: large then small target made %d hits, %d fills, %d refills, %d mapped; want a refill and a hit", opts, q, hits, fills, refills, mapped)
					}
					first := ask(small, 1)
					if ask(small, math.MaxInt32) != PathLive || ask(small, 1) != PathLive {
						t.Fatalf("%+v concept %d: after a target outgrew the index-born entry the concept is not on the live path", opts, q)
					}
					hits, fills, refills, mapped, _, bytes, _, _ := small.GeometryCounts()
					if first == PathIndexed {
						outgrown++
						if hits != 1 || fills != 0 || refills != 1 || mapped != 1 || bytes == 0 {
							t.Fatalf("%+v concept %d: small, large, small made %d hits, %d fills, %d refills, %d mapped, holding %d bytes; want a view, a refill and a hit on it", opts, q, hits, fills, refills, mapped, bytes)
						}
					}
				}
				if horizon < r.maxRadius() && outgrown == 0 {
					t.Errorf("%+v: no sampled concept's small target was served a view of the index and then outgrown", opts)
				}
			}
		})
	}
}

// TestMappedGeometryHoldsNothing serves every indexed concept of a generated
// world once, and again, from an index that reaches the ceiling: every request
// scores a view, and the memo holds, accounts for and evicts nothing. Under a
// higher ceiling a target past the index's horizon is what first puts bytes in
// it.
func TestMappedGeometryHoldsNothing(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	index := BuildCandidateIndex(ing, sim, CandidateIndexOptions{Radius: 3})
	ctxs := queryContexts(ing)
	r := NewRelaxer(ing, sim, nil, RelaxOptions{Radius: 2, DynamicRadius: true, MaxRadius: 3, IncludeSelf: true})
	grows := NewRelaxer(ing, sim, nil, RelaxOptions{Radius: 2, DynamicRadius: true, MaxRadius: 5, IncludeSelf: true})
	if !r.SetCandidateIndex(index) || !grows.SetCandidateIndex(index) {
		t.Fatal("SetCandidateIndex refused an index that covers the base radius")
	}
	n := uint64(len(index.d.Concepts))
	for pass := 0; pass < 2; pass++ {
		for qi, q := range index.d.Concepts {
			r.RelaxConcept(q, ctxs[(qi+pass)%len(ctxs)], math.MaxInt32)
		}
	}
	hits, fills, refills, mapped, evictions, bytes, _, _ := r.GeometryCounts()
	accounted, held, entries, ok := r.geo.audit()
	if mapped != 2*n || hits+fills+refills+evictions != 0 || bytes != 0 || accounted != 0 || held != 0 || entries != 0 || !ok {
		t.Errorf("after %d indexed concepts twice: %d mapped, %d hits, %d fills, %d refills, %d evictions; memo reports %d bytes, accounts for %d, holds %d in %d entries (consistent: %v)",
			n, mapped, hits, fills, refills, evictions, bytes, accounted, held, entries, ok)
	}
	if live, _, indexed := r.PathCounts(); live != 0 || indexed != 2*n {
		t.Errorf("after %d indexed concepts twice: %d requests on the live path, %d on the indexed", n, live, indexed)
	}
	// The flagged concept's own instance answers a target of one.
	q := ing.FlaggedIDs()[0]
	grows.RelaxConcept(q, nil, 1)
	if _, _, _, mapped, _, bytes, _, _ := grows.GeometryCounts(); mapped != 1 || bytes != 0 {
		t.Errorf("a target the index answers: %d mapped, %d bytes in the memo", mapped, bytes)
	}
	grows.RelaxConcept(q, nil, math.MaxInt32)
	if _, fills, refills, _, _, bytes, _, _ := grows.GeometryCounts(); fills != 0 || refills != 1 || bytes <= 0 {
		t.Errorf("a target past the index's horizon: %d fills, %d refills, %d bytes; want the walk counted a refill and held", fills, refills, bytes)
	}
}

// TestPlaneFirstTouchHammer has eight goroutines ask four concepts under one
// context at once on a relaxer that has seen neither: the context's plane is
// built by several of them while the concepts' geometries fill — some off the
// candidate index, some walked. Every answer is checked against one taken
// beforehand from a relaxer of its own; a round per context. Run under -race.
func TestPlaneFirstTouchHammer(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	opts := RelaxOptions{Radius: 1, DynamicRadius: true}
	sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
	index := BuildCandidateIndex(ing, sim(), CandidateIndexOptions{Radius: 2})
	ref := NewRelaxer(ing, sim(), nil, opts)
	concepts := ing.FlaggedIDs()[:4]
	ctxs := queryContexts(ing)
	if testing.Short() {
		ctxs = ctxs[:8]
	}
	shared := NewRelaxer(ing, sim(), nil, opts)
	shared.SetCandidateIndex(index)
	for round, qctx := range ctxs {
		if round%8 == 0 { // the geometries fill again; the planes stay
			shared.setGeometryBudget(geometryBudget)
		}
		ks := []int{1, 50}
		want := map[eks.ConceptID][][]Result{}
		for _, q := range concepts {
			for _, k := range ks {
				want[q] = append(want[q], ref.RelaxConcept(q, qctx, k))
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				q := concepts[w%len(concepts)]
				for i := range ks {
					ki := (i + w/len(concepts)) % len(ks)
					if got := shared.RelaxConcept(q, qctx, ks[ki]); !sameResults(want[q][ki], got) {
						t.Errorf("round %d goroutine %d: concept %d ctx %q k %d differs under concurrency", round, w, q, ctxKey(qctx), ks[ki])
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
	if _, _, _, _, _, _, planes, _ := shared.GeometryCounts(); planes != len(ctxs) {
		t.Errorf("after a round per context the relaxer holds %d planes for %d contexts", planes, len(ctxs))
	}
	if _, _, indexed := shared.PathCounts(); indexed == 0 {
		t.Error("no request was served by a geometry read off the index")
	}
}
