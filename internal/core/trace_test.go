package core

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/match"
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
// about the run: the radius the walk stopped at, the graph nodes it entered
// and the candidates it scored — checked against the exhaustive oracle — and,
// on the live and the indexed path, whether the concept's geometry was walked
// now (fill), found in the memo (hit: nothing reached), a view of the index
// (mapped, every time: nothing reached, nothing memoised) or walked for a
// wider target than the memo's or the index's geometry answers (refill, which
// moves an indexed concept to the live path); on the single and the batch
// entry points, and on the path that holds no geometry.
func TestKernelSpanTags(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	opts := RelaxOptions{Radius: 1, DynamicRadius: true, MaxRadius: 6}
	mapper := match.NewExact(ing.Graph)
	sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
	live := NewRelaxer(ing, sim(), mapper, opts)
	mopts := MaterializeOptions{Relax: opts, HeadMax: 2, MaxPerQuery: -1, Contexts: ing.Contexts}.withDefaults()
	matR := NewRelaxer(ing, sim(), mapper, opts)
	matR.SetMaterialized(MaterializeTopK(ing, sim(), mopts))
	idxR := NewRelaxer(ing, sim(), mapper, opts)
	idxR.SetCandidateIndex(BuildCandidateIndex(ing, sim(), CandidateIndexOptions{Radius: 6}))

	// The walk enters the nodes within the radius that are not pass-through,
	// found here by brute force on the graph's columns.
	pass := passThroughNodes(ing.Graph.FlatData(), ing.slots)
	ids := ing.Graph.ConceptIDs()
	var batch []Request
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
		touched := ing.Graph.NeighborsWithinHops(q, radius)
		reached := 0
		for _, nb := range touched {
			if pos, _ := slices.BinarySearch(ids, nb.ID); !pass[pos] {
				reached++
			}
		}
		if reached > len(touched) || reached == 0 {
			t.Fatalf("concept %d: the oracle enters %d of the %d nodes it touches", q, reached, len(touched))
		}
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
			case "index_path": // the stored geometry stands in for the walk
				want = [3]int{radius, 0, scored}
			}
			if got := tags(spans[0]); got != want {
				t.Errorf("%s relaxer, concept %d: span says radius/reached/scored %v, the oracle %v", path, q, got, want)
			}
			wantGeometry := map[string]string{"live_path": "fill", "index_path": "mapped", "materialized_hit": ""}[path]
			if got := spans[0].Tag("geometry"); got != wantGeometry {
				t.Errorf("%s relaxer, concept %d: span says geometry=%q, want %q", path, q, got, wantGeometry)
			}
		}
		// The same query again finds the geometry where the first left it — the
		// memo, or the index still: same radius and scoring, no walk.
		for path, r := range map[string]*Relaxer{"live_path": live, "index_path": idxR} {
			wantGeometry := map[string]string{"live_path": "hit", "index_path": "mapped"}[path]
			spans := kernelSpans(t, func(ctx context.Context) { r.RelaxTermContextTraced(ctx, c.Name, nil, 0) })
			if got, want := tags(spans[0]), [3]int{radius, 0, scored}; got != want || spans[0].Tag("geometry") != wantGeometry || spans[0].Tag("path") != path {
				t.Errorf("%s relaxer, concept %d asked again: span says path=%s radius/reached/scored %v geometry=%q, want %v and %q",
					path, q, spans[0].Tag("path"), got, spans[0].Tag("geometry"), want, wantGeometry)
			}
		}
		batch = append(batch, Request{Term: c.Name})
		batchWant = append(batchWant, [3]int{radius, reached, scored})
	}

	// A batch reuses one scratch across its items; each item's span carries
	// its own run's figures. On a fresh relaxer a target of one instance
	// stops short of the ceiling, so the default target walks again; the
	// third pass finds what the second left.
	// The same passes over an index that ends at the base radius: it answers
	// the narrow target as a view, the default one outgrows it, and from the
	// walk that takes its place on the concept is the live path's.
	fresh := NewRelaxer(ing, sim(), mapper, opts)
	freshIdx := NewRelaxer(ing, sim(), mapper, opts)
	walked := map[*Relaxer]uint64{} // the reached tags of each one's spans, summed
	freshIdx.SetCandidateIndex(BuildCandidateIndex(ing, sim(), CandidateIndexOptions{Radius: opts.Radius}))
	narrow := make([]Request, len(batch))
	for i, q := range batch {
		narrow[i] = Request{Term: q.Term, K: 1}
	}
	for _, pass := range []struct {
		queries  []Request
		geometry string
		idxPath  string
	}{{narrow, "fill", "index_path"}, {batch, "refill", "live_path"}, {batch, "hit", "live_path"}} {
		for _, r := range []*Relaxer{fresh, freshIdx} {
			spans := kernelSpans(t, func(ctx context.Context) { r.RelaxBatch(ctx, pass.queries) })
			if len(spans) != len(batch) {
				t.Fatalf("batch of %d recorded %d kernel spans", len(batch), len(spans))
			}
			wantPath, wantGeometry := "live_path", pass.geometry
			if r == freshIdx {
				wantPath = pass.idxPath
				if wantPath == "index_path" {
					wantGeometry = "mapped"
				}
			}
			for i, s := range spans {
				walked[r] += uint64(intTag(t, s, "reached"))
				if got := s.Tag("geometry"); got != wantGeometry || s.Tag("path") != wantPath {
					t.Errorf("%s pass, batch item %d: span says geometry=%q path=%s, want %q path=%s", pass.geometry, i, got, s.Tag("path"), wantGeometry, wantPath)
				}
				want := batchWant[i]
				switch pass.geometry {
				case "fill":
					if r == freshIdx && intTag(t, s, "reached") != 0 {
						t.Errorf("fill pass, batch item %d: a view of the index reached %s nodes", i, s.Tag("reached"))
					}
					continue // another target: only the tags above are pinned
				case "hit":
					want[1] = 0
				}
				if got := tags(s); got != want {
					t.Errorf("%s pass, batch item %d: span says radius/reached/scored %v, the oracle %v", pass.geometry, i, got, want)
				}
			}
		}
	}
	for _, r := range []*Relaxer{fresh, freshIdx} {
		if got := r.WalkedNodes(); got != walked[r] || got == 0 {
			t.Errorf("WalkedNodes after the three passes: %d, the spans' reached tags add up to %d", got, walked[r])
		}
		hits, fills, refills, mapped, _, bytes, planes, planeBytes := r.GeometryCounts()
		// The first pass walked on the one and mapped on the other.
		if n := uint64(len(batch)); hits != n || fills+mapped != n || (mapped != 0) != (r == freshIdx) || refills != n || bytes <= 0 {
			t.Errorf("GeometryCounts after the three passes: %d hits, %d fills, %d mapped, %d refills, %d bytes; want %d of each (fills or mapped) and some bytes", hits, fills, mapped, refills, bytes, n)
		}
		// Every query was context-free: one plane, a float per ranked node.
		if planes != 1 || planeBytes != int64(8*len(ing.icDomain)) {
			t.Errorf("GeometryCounts after the three passes: %d planes of %d bytes, want one of %d", planes, planeBytes, 8*len(ing.icDomain))
		}
	}
	if live, _, indexed := freshIdx.PathCounts(); live != 2*uint64(len(batch)) || indexed != uint64(len(batch)) {
		t.Errorf("PathCounts of the indexed relaxer after the three passes: %d live, %d indexed; want %d and %d", live, indexed, 2*len(batch), len(batch))
	}
}

// TestKernelSpanNamesATruncationDecline pins the one decline a span reports:
// over a store cut at one candidate, a k the stored prefix proves is a
// materialized hit with no decline tag, a k it cannot prove carries
// decline=truncated on the span of the path that answered, and a concept the
// store holds no entry for declines untagged — in one batch, so the tag is
// each item's own.
func TestKernelSpanNamesATruncationDecline(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	opts := RelaxOptions{Radius: 3, DynamicRadius: true}
	mapper := match.NewExact(ing.Graph)
	sim := func() *Similarity { return NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology) }
	mopts := MaterializeOptions{Relax: opts, HeadMax: 2, MaxPerQuery: 1}.withDefaults()
	r := NewRelaxer(ing, sim(), mapper, opts)
	if !r.SetMaterialized(MaterializeTopK(ing, sim(), mopts)) {
		t.Fatal("SetMaterialized refused a store built under the same options")
	}
	head := headConcepts(ing, mopts)
	name := func(id eks.ConceptID) string {
		c, _ := ing.Graph.Concept(id)
		return c.Name
	}
	flagged := ing.FlaggedIDs()
	past := flagged[slices.IndexFunc(flagged, func(id eks.ConceptID) bool { return !slices.Contains(head, id) })]
	batch := []Request{{Term: name(head[0]), K: 1}, {Term: name(head[0]), K: 1000}, {Term: name(past), K: 1000}, {Term: name(head[1]), K: 1}}
	want := []struct{ path, decline string }{{"materialized_hit", ""}, {"live_path", "truncated"}, {"live_path", ""}, {"materialized_hit", ""}}
	var resps []Response
	spans := kernelSpans(t, func(ctx context.Context) { resps = r.RelaxBatch(ctx, batch) })
	if len(spans) != len(batch) {
		t.Fatalf("batch of %d recorded %d kernel spans", len(batch), len(spans))
	}
	for i, s := range spans {
		if s.Tag("path") != want[i].path || s.Tag("decline") != want[i].decline || resps[i].Decline != want[i].decline {
			t.Errorf("item %d (%q, k %d): span says path=%s decline=%q, the response %q; want %s and %q",
				i, batch[i].Term, batch[i].K, s.Tag("path"), s.Tag("decline"), resps[i].Decline, want[i].path, want[i].decline)
		}
	}
	if got := r.TruncatedDeclines(); got != 1 {
		t.Errorf("TruncatedDeclines = %d after one truncated decline", got)
	}
}

// TestUntracedIndexedRequestAllocatesLikeTheKernel is the zero-alloc untraced
// gate (internal/trace BenchmarkUntracedOverhead, which cannot import this
// package) on an index-covered request: taking the view allocates nothing
// once the scratch is warm — with the own hit left out, the case that writes
// into it — and the traced entry point, handed a context that carries no
// span, allocates exactly what the span-free one and the term mapping do.
func TestUntracedIndexedRequestAllocatesLikeTheKernel(t *testing.T) {
	ing := oracleWorlds(t)["seed11"]
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	index := BuildCandidateIndex(ing, sim, CandidateIndexOptions{Radius: 3})
	q := ing.FlaggedIDs()[0]
	c, _ := ing.Graph.Concept(q)
	for _, opts := range []RelaxOptions{{Radius: 2, IncludeSelf: true}, {Radius: 2, DynamicRadius: true, MaxRadius: 3}} {
		r := NewRelaxer(ing, sim, match.NewExact(ing.Graph), opts)
		if !r.SetCandidateIndex(index) {
			t.Fatal("SetCandidateIndex refused an index that covers the base radius")
		}
		sc := &relaxScratch{}
		if view, _ := r.indexedGeometry(q, 1, sc); view == nil {
			t.Fatalf("%+v: the index declined concept %d", opts, q)
		}
		if allocs := testing.AllocsPerRun(100, func() { r.indexedGeometry(q, 1, sc) }); allocs != 0 {
			t.Errorf("%+v: a view on a warm scratch allocates %v times, want 0", opts, allocs)
		}
		ctx := context.Background()
		kernel := testing.AllocsPerRun(100, func() { r.Relax(ctx, Request{Concept: q, UseConcept: true, K: 5}) })
		mapping := testing.AllocsPerRun(100, func() { r.mapper.Map(c.Name) })
		entry := testing.AllocsPerRun(100, func() { r.RelaxTermContextTraced(ctx, c.Name, nil, 5) })
		if _, _, _, mapped, _, bytes, _, _ := r.GeometryCounts(); entry != kernel+mapping || mapped == 0 || bytes != 0 {
			t.Errorf("%+v: the untraced traced entry point allocates %v times, the span-free one %v and the term mapping %v; %d requests mapped, %d bytes memoised",
				opts, entry, kernel, mapping, mapped, bytes)
		}
	}
}

// TestFlaggedWalkEntersSkeleton pins where the flagged walk's work goes on a
// world padded like the benchmark's: walked to the end of the component, from
// flagged and unflagged concepts, it enters exactly the nodes a brute-force
// reading of the pass-through rule keeps — a small part of what it would
// touch — and reports every flagged concept it reaches.
func TestFlaggedWalkEntersSkeleton(t *testing.T) {
	ing := oracleWorlds(t)["sparse10k"]
	fg := ing.Graph.FlatData()
	pass := passThroughNodes(fg, ing.slots)
	for _, q := range oracleQueries(ing, ing.FlaggedIDs()[:2]) {
		touched := ing.Graph.NeighborsWithinHops(q, len(fg.IDs))
		want, flagged := 0, 0
		for _, nb := range touched {
			pos, _ := slices.BinarySearch(fg.IDs, nb.ID)
			if !pass[pos] {
				want++
			}
			if ing.slots[pos] >= 0 {
				flagged++
			}
		}
		f, ok := ing.flaggedFrontier(q)
		if !ok {
			t.Fatalf("concept %d: no frontier", q)
		}
		reported := 0
		for last := -1; f.Reached() != last; {
			last = f.Reached()
			reported += len(f.Advance())
		}
		got := f.Reached()
		f.Close()
		if got != want || reported != flagged {
			t.Errorf("concept %d: the walk entered %d nodes and reported %d; the skeleton keeps %d of the %d touched, %d of them flagged", q, got, reported, want, len(touched), flagged)
		}
		if 4*want > len(touched) {
			t.Errorf("concept %d: the skeleton keeps %d of %d nodes; the padded world's leaves should pass through", q, want, len(touched))
		}
	}
}
