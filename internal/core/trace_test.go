package core

import (
	"context"
	"net/http"
	"strconv"
	"testing"

	"medrelax/internal/trace"
)

// kernelSpans runs fn under a sampled request and returns the relax.kernel
// spans it recorded, in the order they ended.
func kernelSpans(t *testing.T, fn func(ctx context.Context)) []*trace.Span {
	t.Helper()
	rec := trace.NewRecorder(1, 1)
	ctx, root := trace.NewTracer("test", 1, rec).StartRequest(context.Background(), http.Header{}, "request")
	fn(ctx)
	root.End()
	traces, _ := rec.Snapshot(false)
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	var out []*trace.Span
	for _, s := range traces[0].Spans {
		if s.Name == "relax.kernel" {
			out = append(out, s)
		}
	}
	return out
}

func intTag(t *testing.T, s *trace.Span, key string) int {
	t.Helper()
	n, err := strconv.Atoi(s.Tag(key))
	if err != nil {
		t.Fatalf("relax.kernel span tag %q = %q, want a count", key, s.Tag(key))
	}
	return n
}

// TestKernelSpanTags pins what a sampled request's relax.kernel span says
// about the run: the radius the walk stopped at, the graph nodes it touched
// and the candidates it scored — checked against the exhaustive oracle — and,
// on the live path, whether the concept's geometry was walked now (fill),
// found in the memo (hit: nothing reached) or walked again for a wider
// target (refill); on the single and the batch entry points, and on the
// paths that do not walk.
func TestKernelSpanTags(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	opts := RelaxOptions{Radius: 1, DynamicRadius: true, MaxRadius: 6}
	mapper := exactMapper{ing.Graph}
	sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
	live := NewRelaxer(ing, sim(), mapper, opts)
	mopts := MaterializeOptions{Relax: opts, HeadMax: 2, MaxPerQuery: -1, Contexts: ing.Contexts}.withDefaults()
	matR := NewRelaxer(ing, sim(), mapper, opts)
	matR.SetMaterialized(MaterializeTopK(ing, sim(), mopts))
	idxR := NewRelaxer(ing, sim(), mapper, opts)
	idxR.SetCandidateIndex(BuildCandidateIndex(ing, sim(), CandidateIndexOptions{Radius: 6}))

	var batch []BatchQuery
	var batchWant [][3]int
	tags := func(s *trace.Span) [3]int {
		return [3]int{intTag(t, s, "radius"), intTag(t, s, "reached"), intTag(t, s, "scored")}
	}
	for _, head := range headConcepts(ing, mopts) {
		c, _ := ing.Graph.Concept(head)
		q, ok := mapper.Map(c.Name)
		if !ok {
			t.Fatalf("concept %d does not resolve by its own name %q", head, c.Name)
		}
		// The oracle's stopping radius: the first whose flagged neighbourhood
		// supplies the target, or the ceiling.
		radius := opts.Radius
		sc := &legacyScratch{}
		for radius < opts.MaxRadius && live.legacyInstanceCount(live.legacyFlaggedWithin(q, radius, sc), sc) < defaultCandidateTarget {
			radius++
		}
		reached := len(ing.Graph.NeighborsWithinHops(q, radius))
		scored := len(live.legacyFlaggedWithin(q, radius, sc))

		for path, r := range map[string]*Relaxer{"live_path": live, "materialized_hit": matR, "index_path": idxR} {
			spans := kernelSpans(t, func(ctx context.Context) {
				if _, _, err := r.RelaxTermContextTraced(ctx, c.Name, nil, 0); err != nil {
					t.Fatal(err)
				}
			})
			if len(spans) != 1 || spans[0].Tag("path") != path || spans[0].Tag("term") != c.Name {
				t.Fatalf("%s relaxer, term %q: kernel spans %+v", path, c.Name, spans)
			}
			want := [3]int{radius, reached, scored}
			switch path {
			case "materialized_hit": // a stored answer: nothing walked, nothing scored
				want = [3]int{radius, 0, 0}
			case "index_path": // the posting list stands in for the walk
				want = [3]int{radius, 0, scored}
			}
			if got := tags(spans[0]); got != want {
				t.Errorf("%s relaxer, concept %d: span says radius/reached/scored %v, the oracle %v", path, q, got, want)
			}
			wantGeometry := ""
			if path == "live_path" {
				wantGeometry = "fill"
			}
			if got := spans[0].Tag("geometry"); got != wantGeometry {
				t.Errorf("%s relaxer, concept %d: span says geometry=%q, want %q", path, q, got, wantGeometry)
			}
		}
		// The same query again finds the geometry: same radius and scoring,
		// no walk.
		spans := kernelSpans(t, func(ctx context.Context) { live.RelaxTermContextTraced(ctx, c.Name, nil, 0) })
		if got, want := tags(spans[0]), [3]int{radius, 0, scored}; got != want || spans[0].Tag("geometry") != "hit" {
			t.Errorf("concept %d asked again: span says radius/reached/scored %v geometry=%q, want %v from a hit", q, got, spans[0].Tag("geometry"), want)
		}
		batch = append(batch, BatchQuery{Term: c.Name})
		batchWant = append(batchWant, [3]int{radius, reached, scored})
	}

	// A batch reuses one scratch across its items; each item's span carries
	// its own run's figures. On a fresh relaxer a target of one instance
	// stops short of the ceiling, so the default target walks again; the
	// third pass finds what the second left.
	fresh := NewRelaxer(ing, sim(), mapper, opts)
	narrow := make([]BatchQuery, len(batch))
	for i, q := range batch {
		narrow[i] = BatchQuery{Term: q.Term, K: 1}
	}
	for _, pass := range []struct {
		queries  []BatchQuery
		geometry string
	}{{narrow, "fill"}, {batch, "refill"}, {batch, "hit"}} {
		spans := kernelSpans(t, func(ctx context.Context) { fresh.RelaxBatchContextTraced(ctx, pass.queries) })
		if len(spans) != len(batch) {
			t.Fatalf("batch of %d recorded %d kernel spans", len(batch), len(spans))
		}
		for i, s := range spans {
			if got := s.Tag("geometry"); got != pass.geometry {
				t.Errorf("%s pass, batch item %d: span says geometry=%q", pass.geometry, i, got)
			}
			want := batchWant[i]
			switch pass.geometry {
			case "fill":
				continue // another target: only the tag is pinned
			case "hit":
				want[1] = 0
			}
			if got := tags(s); got != want {
				t.Errorf("%s pass, batch item %d: span says radius/reached/scored %v, the oracle %v", pass.geometry, i, got, want)
			}
		}
	}
	hits, fills, refills, _, bytes := fresh.GeometryCounts()
	if n := uint64(len(batch)); hits != n || fills != n || refills != n || bytes <= 0 {
		t.Errorf("GeometryCounts after the three passes: %d hits, %d fills, %d refills, %d bytes; want %d of each and some bytes", hits, fills, refills, bytes, n)
	}
}
