package eks_test

// The skeleton walk against the plain hop walk: on generated worlds shaped
// like the benchmark's (padded with unflagged leaves, multi-parent variants,
// chains, no shortcuts), on a hand-built graph whose down lists are not the
// transpose of its up lists, and on fuzzed small graphs, every level a
// skeleton's frontier reports must be the reported nodes of the plain walk's
// level, in its visiting order, and it must enter exactly the nodes that are
// not pass-through.

import (
	"fmt"
	"slices"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/strtab"
	"medrelax/internal/synthkb"
)

// passThrough reads the skeleton's definition off a graph's columns by brute
// force: an unreported node whose out-neighbours, two at a time, are joined by
// an arc each way, and whose every in-arc comes from an out-neighbour. It
// shares nothing with the derivation but the definition.
func passThrough(fg eks.FlatGraphData, report []int32) []bool {
	n := len(fg.IDs)
	out := make([]map[int32]bool, n)
	in := make([]map[int32]bool, n)
	for i := range out {
		out[i], in[i] = map[int32]bool{}, map[int32]bool{}
	}
	for i := 0; i < n; i++ {
		for _, to := range [][]int32{fg.UpTo[fg.UpOff[i]:fg.UpOff[i+1]], fg.DownTo[fg.DownOff[i]:fg.DownOff[i+1]]} {
			for _, nb := range to {
				out[i][nb] = true
				in[nb][int32(i)] = true
			}
		}
	}
	pass := make([]bool, n)
	for x := range pass {
		if report[x] >= 0 {
			continue
		}
		pass[x] = true
		for a := range out[x] {
			for b := range out[x] {
				if a != b && !out[a][b] {
					pass[x] = false
				}
			}
			if !pass[x] {
				break
			}
		}
		for p := range in[x] {
			if !out[x][p] {
				pass[x] = false
			}
		}
	}
	return pass
}

// referenceLevels is the hop walk written out plainly: breadth first from
// node from over each reached node's up arcs, then its down arcs, in the order
// the nodes were reached. levels[h-1] holds the nodes first reached at hop h;
// it stops at the first empty level or after maxHops.
func referenceLevels(fg eks.FlatGraphData, from int32, maxHops int) [][]int32 {
	seen := make([]bool, len(fg.IDs))
	seen[from] = true
	var levels [][]int32
	for level := []int32{from}; len(levels) < maxHops; {
		var next []int32
		for _, cur := range level {
			for _, to := range [][]int32{fg.UpTo[fg.UpOff[cur]:fg.UpOff[cur+1]], fg.DownTo[fg.DownOff[cur]:fg.DownOff[cur+1]]} {
				for _, nb := range to {
					if !seen[nb] {
						seen[nb] = true
						next = append(next, nb)
					}
				}
			}
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
		level = next
	}
	return levels
}

// checkSkeletonWalk walks the skeleton of report from node from hop by hop
// against the plain walk: the reported values of each level in visiting
// order, the nodes entered so far (the plain walk's, pass-through nodes
// left out, never more than it touched), and an empty level past the end.
// With a legacy oracle the levels are also checked, as sets, against its BFS.
func checkSkeletonWalk(t *testing.T, g *eks.Graph, skel *eks.Skeleton, report []int32, pass []bool, legacy *eks.LegacyOracle, from int32) {
	t.Helper()
	fg := g.FlatData()
	levels := referenceLevels(fg, from, len(fg.IDs))
	f, ok := skel.HopFrontier(fg.IDs[from])
	if !ok {
		t.Fatalf("skeleton HopFrontier(%d): unknown", fg.IDs[from])
	}
	defer f.Close()
	var want []eks.Neighbor
	if legacy != nil {
		want = legacy.NeighborsWithinHops(fg.IDs[from], len(levels))
	}
	entered, touched := 0, 0
	for hop, level := range levels {
		var wantLevel []int32
		for _, node := range level {
			if report[node] >= 0 {
				wantLevel = append(wantLevel, report[node])
			}
			if !pass[node] {
				entered++
			}
		}
		touched += len(level)
		got := f.Advance()
		if !slices.Equal(got, wantLevel) {
			t.Fatalf("from %d, hop %d: skeleton reports %v, the plain walk %v", fg.IDs[from], hop+1, got, wantLevel)
		}
		if f.Reached() != entered || entered > touched {
			t.Fatalf("from %d, hop %d: skeleton entered %d nodes, want %d of the %d touched", fg.IDs[from], hop+1, f.Reached(), entered, touched)
		}
		if legacy != nil {
			var legacyLevel []int32
			for _, nb := range want {
				if nb.Hops == hop+1 {
					if pos, _ := slices.BinarySearch(fg.IDs, nb.ID); report[pos] >= 0 {
						legacyLevel = append(legacyLevel, report[pos])
					}
				}
			}
			sorted := slices.Clone(got)
			slices.Sort(sorted)
			slices.Sort(legacyLevel)
			if !slices.Equal(sorted, legacyLevel) {
				t.Fatalf("from %d, hop %d: skeleton reports %v, legacy BFS %v", fg.IDs[from], hop+1, sorted, legacyLevel)
			}
		}
	}
	if level := f.Advance(); len(level) != 0 || f.Reached() != entered {
		t.Fatalf("from %d: past the component the skeleton reports %v and has entered %d, want nothing and %d", fg.IDs[from], level, f.Reached(), entered)
	}
}

// skeletonWorld ingests a synthkb world padded to padTo concepts the way the
// benchmark pads w100k — unflagged leaf variants round-robin under the
// findings — where every third variant also hangs under the next finding
// (multi-parent) and, with chains, every fifth under the variant before it
// (a chain of unflagged nodes). It returns the customized graph and its
// flagged report column.
func skeletonWorld(t *testing.T, seed int64, padTo int, chains bool, opts core.IngestOptions) (*eks.Graph, []int32) {
	t.Helper()
	w, med, _, err := medkb.GenerateWorld(seed, synthkb.Config{}, medkb.Config{Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	ids := g.ConceptIDs()
	next := ids[len(ids)-1] + 1
	for i := 0; g.Len() < padTo; i++ {
		parent := w.Findings[i%len(w.Findings)]
		if err := g.AddConcept(eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of %d", i, parent)}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := g.AddSubsumption(next, w.Findings[(i+1)%len(w.Findings)]); err != nil {
				t.Fatal(err)
			}
		}
		if chains && i%5 == 4 {
			if err := g.AddSubsumption(next, next-1); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}
	ing, err := core.Ingest(med.Ontology, med.Store, g, medkb.BuildCorpus(w, med, medkb.CorpusConfig{Seed: seed + 2}), match.NewExact(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	report := make([]int32, g.Len())
	slot := int32(0)
	for i, id := range g.ConceptIDs() {
		report[i] = -1
		if ing.IsFlagged(id) {
			report[i] = slot
			slot++
		}
	}
	return g, report
}

func TestSkeletonWalkMatchesLegacy(t *testing.T) {
	everyThird := func(g *eks.Graph) []int32 {
		report := make([]int32, g.Len())
		for i := range report {
			report[i] = -1
			if i%3 == 0 {
				report[i] = int32(i) + 1000
			}
		}
		return report
	}
	type world struct {
		g      *eks.Graph
		report []int32
	}
	worlds := map[string]func() world{
		"synth seed 3": func() world { g := synthWorld(t, 3, 1); return world{g, everyThird(g)} },
		"synth seed 7": func() world { g := synthWorld(t, 7, 2); return world{g, everyThird(g)} },
		"ingested seed 5": func() world {
			g, report := skeletonWorld(t, 5, 0, false, core.IngestOptions{})
			return world{g, report}
		},
		"padded w100k recipe": func() world {
			g, report := skeletonWorld(t, 11, 4000, false, core.IngestOptions{})
			return world{g, report}
		},
		"padded chains, no shortcuts": func() world {
			g, report := skeletonWorld(t, 17, 2500, true, core.IngestOptions{DisableShortcuts: true})
			return world{g, report}
		},
	}
	started := map[int]bool{} // pass-through starts by out-neighbours, 3 for three or more
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			w := build()
			fg := w.g.FlatData()
			pass := passThrough(fg, w.report)
			skel := w.g.Skeleton(w.report)
			legacy := eks.NewLegacyOracle(w.g)
			// Starts: reported nodes, the unreported hub with the most arcs,
			// pass-through nodes with one, two and more out-neighbours, and
			// the root.
			degree := func(i int) int { return int(fg.UpOff[i+1] - fg.UpOff[i] + fg.DownOff[i+1] - fg.DownOff[i]) }
			var starts []int32
			hub, passes := -1, map[int]int{}
			for i := range fg.IDs {
				switch {
				case w.report[i] >= 0:
					if len(starts) < 6 || i%97 == 0 {
						starts = append(starts, int32(i))
					}
				case pass[i]:
					if d := min(degree(i), 3); passes[d] < 3 {
						passes[d]++
						starts = append(starts, int32(i))
					}
				case hub < 0 || degree(i) > degree(hub):
					hub = i
				}
			}
			if hub < 0 || len(passes) == 0 {
				t.Fatalf("the world has no unreported hub (%d) or no pass-through node", hub)
			}
			for d := range passes {
				started[d] = true
			}
			root, _ := slices.BinarySearch(fg.IDs, fg.Root)
			starts = append(starts, int32(hub), int32(root))
			for _, from := range starts {
				checkSkeletonWalk(t, w.g, skel, w.report, pass, legacy, from)
			}
			if lent := w.g.ScratchLent(); lent != 0 {
				t.Fatalf("%d scratches still lent after the walks", lent)
			}
		})
	}
	if !started[1] || !started[2] || !started[3] {
		t.Fatalf("walks started at pass-through nodes with %v out-neighbours; want one, two and three or more", started)
	}
}

// flatGraph lays per-node arc lists out as a read-only graph: concept ids
// 10, 20, ..., every arc native, node 0 the root. The down lists are taken as
// given, not derived from the up lists.
func flatGraph(t testing.TB, up, down [][]int32) *eks.Graph {
	t.Helper()
	n := len(up)
	d := eks.FlatGraphData{SynOff: make([]int32, n+1), KeyOff: []int32{0}, Root: 10}
	csr := func(lists [][]int32) (off, to, dist, nativeEnd []int32) {
		off = []int32{0}
		for _, l := range lists {
			to = append(to, l...)
			off = append(off, int32(len(to)))
			nativeEnd = append(nativeEnd, int32(len(to)))
		}
		dist = make([]int32, len(to))
		for i := range dist {
			dist[i] = 1
		}
		return off, to, dist, nativeEnd
	}
	names := make([]string, n)
	for i := range n {
		d.IDs = append(d.IDs, eks.ConceptID(10*(i+1)))
		names[i] = fmt.Sprintf("node %d", i)
	}
	d.Names = strtab.Pack(names)
	d.UpOff, d.UpTo, d.UpDist, d.UpNativeEnd = csr(up)
	d.DownOff, d.DownTo, d.DownDist, d.DownNativeEnd = csr(down)
	g, err := eks.NewFlatGraph(d)
	if err != nil {
		t.Fatalf("NewFlatGraph refused the hand-built graph: %v", err)
	}
	return g
}

// TestSkeletonHonoursInArcs walks a graph whose two directions disagree. Node
// 1's only out-neighbour is node 2, so its neighbours are trivially joined;
// but node 0 has an arc into it that node 1 has no arc back along, and node 0
// reaches node 2 only through node 1. A derivation that skipped the in-arc
// condition would leave node 1 out and lose node 2 from node 0's walk.
func TestSkeletonHonoursInArcs(t *testing.T) {
	up := [][]int32{nil, {2}, {3}, {4}, nil}
	down := [][]int32{{1}, nil, nil, {2}, {3}}
	g := flatGraph(t, up, down)
	report := []int32{-1, -1, 7, -1, 9}
	pass := passThrough(g.FlatData(), report)
	if pass[1] {
		t.Fatal("node 1 has an in-arc from a node it has no arc to; it is not pass-through")
	}
	skel := g.Skeleton(report)
	for from := range up {
		checkSkeletonWalk(t, g, skel, report, pass, nil, int32(from))
	}
}

// FuzzSkeletonWalk decodes a small graph and a report column from the input
// — arcs added to up or down lists freely, or with the down lists made the
// transpose of the up lists — and checks the skeleton walk from every node
// against the plain walk.
func FuzzSkeletonWalk(f *testing.F) {
	f.Add([]byte{0x05, 0x0a, 0x00, 1, 0, 2, 1, 3, 1, 4, 2})
	f.Add([]byte{0x86, 0x21, 0x00, 1, 0, 2, 0, 3, 1, 4, 3, 5, 3, 2, 1})
	f.Add([]byte{0x07, 0x00, 0x00, 1, 0, 9, 1, 2, 3, 17, 2, 4, 12, 5, 4, 6, 5, 19, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0]&0x0f)
		transpose := data[0]&0x80 != 0
		mask := uint16(data[1]) | uint16(data[2])<<8
		up, down := make([][]int32, n), make([][]int32, n)
		for i := 3; i+1 < len(data) && i < 3+2*64; i += 2 {
			src, dst := int32(data[i]%byte(n)), int32(data[i+1]%byte(n))
			if src == dst {
				continue
			}
			if data[i+1]&0x80 == 0 || transpose {
				up[src] = append(up[src], dst)
				if transpose {
					down[dst] = append(down[dst], src)
				}
			} else {
				down[src] = append(down[src], dst)
			}
		}
		g := flatGraph(t, up, down)
		report := make([]int32, n)
		for i := range report {
			report[i] = -1
			if mask>>(i%16)&1 != 0 {
				report[i] = int32(100 + i)
			}
		}
		pass := passThrough(g.FlatData(), report)
		skel := g.Skeleton(report)
		for from := 0; from < n; from++ {
			checkSkeletonWalk(t, g, skel, report, pass, nil, int32(from))
		}
	})
}
