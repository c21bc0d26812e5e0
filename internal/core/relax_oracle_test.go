package core

// The live kernel — flagged frontier, incremental radius growth, Equation 5
// in two halves — against the exhaustive bodies it replaced (export_test.go),
// on generated worlds, and through it the materialized and indexed paths,
// which take their candidates from the same walk.

import (
	"context"
	"fmt"
	"math"
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
