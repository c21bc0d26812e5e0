package eks_test

// The hop frontier on its own — resumable, filtered over a skeleton, scratch
// returned on Close — and under its one real caller: core's live kernel must give the
// scratch back when a deadline fires mid-walk. NeighborsWithinHops, the
// unfiltered frontier, is pinned to LegacyOracle in dense_equiv_test.go.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/synthkb"
)

func TestHopFrontierLevelsAndFilter(t *testing.T) {
	g := synthWorld(t, 7, 1)
	ids := g.ConceptIDs()
	// Report every third concept, as a value that is not its position.
	report := make([]int32, len(ids))
	for i := range report {
		report[i] = -1
		if i%3 == 0 {
			report[i] = int32(i) + 1000
		}
	}
	// The filtered walk enters what the plain walk touches, less the
	// pass-through nodes, found here by brute force.
	pass := passThrough(g.FlatData(), report)
	skel := g.Skeleton(report)
	legacy := eks.NewLegacyOracle(g)
	for i := 0; i < len(ids); i += 41 {
		from := ids[i]
		all, ok := g.HopFrontier(from)
		if !ok {
			t.Fatalf("HopFrontier(%d): unknown", from)
		}
		some, _ := skel.HopFrontier(from)
		want := legacy.NeighborsWithinHops(from, 6)
		touched, entered := 0, 0
		for hops := 1; hops <= 6; hops++ {
			var wantAll, wantSome []int32
			for _, nb := range want {
				if nb.Hops != hops {
					continue
				}
				pos, _ := slices.BinarySearch(ids, nb.ID)
				wantAll = append(wantAll, int32(pos))
				if report[pos] >= 0 {
					wantSome = append(wantSome, report[pos])
				}
				if !pass[pos] {
					entered++
				}
			}
			gotAll, gotSome := slices.Clone(all.Advance()), slices.Clone(some.Advance())
			slices.Sort(gotAll)
			slices.Sort(gotSome)
			if !slices.Equal(gotAll, wantAll) || !slices.Equal(gotSome, wantSome) {
				t.Fatalf("from %d, hop %d: frontier levels %v / %v, legacy BFS says %v / %v", from, hops, gotAll, gotSome, wantAll, wantSome)
			}
			touched += len(wantAll)
			if all.Reached() != touched || some.Reached() != entered || entered > touched {
				t.Fatalf("from %d, hop %d: Reached %d and %d, want %d nodes touched and %d entered", from, hops, all.Reached(), some.Reached(), touched, entered)
			}
		}
		if lent := g.ScratchLent(); lent != 2 {
			t.Fatalf("two open frontiers hold %d scratches", lent)
		}
		all.Close()
		some.Close()
		some.Close() // idempotent
		if lent := g.ScratchLent(); lent != 0 {
			t.Fatalf("%d scratches still lent after Close", lent)
		}
	}

	if _, ok := g.HopFrontier(ids[len(ids)-1] + 1); ok || g.ScratchLent() != 0 {
		t.Fatal("HopFrontier of an unknown concept must borrow nothing and report !ok")
	}
	if _, ok := skel.HopFrontier(ids[len(ids)-1] + 1); ok || g.ScratchLent() != 0 {
		t.Fatal("a skeleton's HopFrontier of an unknown concept must borrow nothing and report !ok")
	}
	// Past the end of the component every level is empty.
	f, _ := g.HopFrontier(ids[0])
	defer f.Close()
	for len(f.Advance()) > 0 {
	}
	if f.Reached() != len(ids)-1 || len(f.Advance()) != 0 {
		t.Fatalf("exhausted walk reached %d of %d nodes", f.Reached(), len(ids)-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a report column of the wrong length must panic")
		}
	}()
	g.Skeleton(report[1:])
}

// countdownCtx is a context whose Err starts failing after a set number of
// polls: a deadline that fires at a chosen point of the kernel.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestCancelledWalkReturnsScratch(t *testing.T) {
	w, med, corp, err := medkb.GenerateWorld(11, synthkb.Config{}, medkb.Config{Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	ing, err := core.Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newRelaxer := func() *core.Relaxer {
		return core.NewRelaxer(ing, core.NewSimilarity(g, ing.Frequencies, ing.Ontology), match.NewExact(g), core.RelaxOptions{Radius: 2, DynamicRadius: true})
	}
	r := newRelaxer()
	q := ing.FlaggedIDs()[0]
	want := r.RelaxConcept(q, nil, 1<<30)
	if len(want) <= 64 {
		t.Fatalf("only %d candidates: the scoring loop would never poll the context a second time", len(want))
	}

	var walking, scoring int
	for polls := 0; ; polls++ {
		resp := r.Relax(&countdownCtx{Context: context.Background(), left: polls}, core.Request{Concept: q, UseConcept: true, K: 1 << 30})
		got, err := resp.Results, resp.Err
		if lent := g.ScratchLent(); lent != 0 {
			t.Fatalf("cancelled after %d polls: %d scratches not returned to the pool", polls, lent)
		}
		if err == nil {
			if len(got) != len(want) {
				t.Fatalf("the run that was not cancelled returned %d results, want %d", len(got), len(want))
			}
			break
		}
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("cancelled after %d polls: results %v, error %v; want none and a wrapped context.Canceled", polls, got, err)
		}
		switch {
		case strings.Contains(err.Error(), "at radius"):
			walking++
		case strings.Contains(err.Error(), "scoring candidate"):
			scoring++
		}
	}
	// Radius 2 growing to 8: the walk polls once a hop, so some cancellations
	// land after the frontier has advanced, and some in the scoring loop.
	if walking < 3 || scoring < 2 {
		t.Fatalf("cancelled %d times mid-walk and %d times mid-scoring; the sweep did not reach both", walking, scoring)
	}

	// That relaxer held q's geometry from the first call on. A fresh one per
	// run is cancelled inside the fill — the walk, then the derivation of the
	// meets — which must give the frontier back and publish nothing.
	var deriving int
	for polls := 0; ; polls++ {
		fresh := newRelaxer()
		err := fresh.Relax(&countdownCtx{Context: context.Background(), left: polls}, core.Request{Concept: q, UseConcept: true, K: 1 << 30}).Err
		if lent := g.ScratchLent(); lent != 0 {
			t.Fatalf("fill cancelled after %d polls: %d scratches not returned to the pool", polls, lent)
		}
		hits, fills, refills, _, _, bytes, _, _ := fresh.GeometryCounts()
		if err == nil {
			if fills != 1 || bytes == 0 {
				t.Fatalf("the fill that was not cancelled counts %d fills and holds %d bytes", fills, bytes)
			}
			break
		}
		// Past the fill — deciding the radius, scoring — a cancelled request
		// leaves the finished geometry behind; before that, nothing.
		if published := fills == 1 && bytes > 0; hits+refills != 0 || (!published && fills+uint64(bytes) != 0) {
			t.Fatalf("fill cancelled after %d polls (%v) left %d hits, %d fills, %d refills, %d bytes", polls, err, hits, fills, refills, bytes)
		}
		if strings.Contains(err.Error(), "deriving candidate") {
			if fills != 0 {
				t.Fatalf("cancelled deriving meets (%v) and published all the same", err)
			}
			deriving++
		}
	}
	if deriving < 2 {
		t.Fatalf("cancelled %d times while deriving meets; the sweep did not reach the second half of a fill", deriving)
	}
}
