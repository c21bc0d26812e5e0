package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func testTerms(n int) []string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = "finding " + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + " of the organ"
	}
	return terms
}

func TestStreamsArePureFunctionsOfSeed(t *testing.T) {
	terms, contexts := testTerms(400), []string{"", ctxIndication, ctxRisk}
	if !reflect.DeepEqual(zipfStream(7, terms, 5000), zipfStream(7, terms, 5000)) {
		t.Error("zipfStream differs between two calls with one seed")
	}
	if !reflect.DeepEqual(longtailStream(7, terms, contexts, 5000), longtailStream(7, terms, contexts, 5000)) {
		t.Error("longtailStream differs between two calls with one seed")
	}
	if !reflect.DeepEqual(poissonArrivals(7, 3000, time.Second), poissonArrivals(7, 3000, time.Second)) {
		t.Error("poissonArrivals differs between two calls with one seed")
	}
	if reflect.DeepEqual(zipfStream(7, terms, 5000), zipfStream(8, terms, 5000)) {
		t.Error("zipfStream ignores its seed")
	}
	if reflect.DeepEqual(longtailStream(7, terms, contexts, 5000), longtailStream(8, terms, contexts, 5000)) {
		t.Error("longtailStream ignores its seed")
	}
}

func TestZipfStreamStaysInItsKeySpace(t *testing.T) {
	terms := testTerms(400)
	keys := map[string]bool{}
	for _, k := range zipfKeys(terms) {
		keys[k.key()] = true
	}
	if len(keys) != zipfTerms*len(zipfContexts) {
		t.Fatalf("key space has %d keys, want %d", len(keys), zipfTerms*len(zipfContexts))
	}
	head := 0
	stream := zipfStream(1, terms, 20000)
	for _, r := range stream {
		if !keys[r.key()] {
			t.Fatalf("request %+v is outside the warmed key space", r)
		}
		if r.Term == terms[0] {
			head++
		}
	}
	// zipf s=1.2 over 300 ranks puts about a fifth of the mass on rank one.
	if share := float64(head) / float64(len(stream)); share < 0.15 || share > 0.35 {
		t.Errorf("hottest term drew %.3f of the stream", share)
	}
}

func TestLongtailStreamMix(t *testing.T) {
	terms := testTerms(400)
	known := map[string]bool{}
	for _, term := range terms {
		known[term] = true
	}
	stream := longtailStream(3, terms, []string{"", ctxIndication}, 40000)
	typos, unknown := 0, 0
	for _, r := range stream {
		switch {
		case strings.HasPrefix(r.Term, "qzxj"):
			unknown++
		case !known[r.Term]:
			typos++
		}
	}
	if share := float64(typos) / float64(len(stream)); math.Abs(share-typoShare) > 0.01 {
		t.Errorf("typo share %.4f, want about %.2f", share, typoShare)
	}
	if share := float64(unknown) / float64(len(stream)); math.Abs(share-unknownShare) > 0.005 {
		t.Errorf("unknown share %.4f, want about %.2f", share, unknownShare)
	}
	if got := len(firstDistinct(stream, 200)); got != 200 {
		t.Errorf("firstDistinct returned %d requests", got)
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	due := poissonArrivals(1, 3000, 5*time.Second)
	if n := len(due); n < 14000 || n > 16000 {
		t.Errorf("%d arrivals in 5 s at 3000/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}

// The acceptance rule is stated in terms of Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles of three = %v %v %v, want 10 20 30", q1, q2, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one run = %v", got)
	}
}

func TestBlockRate(t *testing.T) {
	var done []completion
	for i := 0; i < 100; i++ {
		done = append(done, completion{done: time.Duration(i) * 5 * time.Millisecond, ops: 1})
	}
	done = append(done, completion{done: 500*time.Millisecond + time.Microsecond, ops: 1000}) // finished after the block: not counted
	if got := blockRate(done, 500*time.Millisecond); got != 200 {
		t.Errorf("blockRate = %v, want 200 operations a second", got)
	}
	batch := []completion{{done: 100 * time.Millisecond, ops: 16}, {done: 400 * time.Millisecond, ops: 16}, {done: 450 * time.Millisecond, ops: 0}}
	if got := blockRate(batch, 500*time.Millisecond); got != 64 {
		t.Errorf("blockRate of batches = %v, want 64: two batches of 16, the failed one carries none", got)
	}
	// The run's throughput is the median block: a stalled one does not move it.
	if got := median([]float64{100, 100, 10, 100, 120}); got != 100 {
		t.Errorf("median block = %v, want 100", got)
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	passes := []float64{40, 15500, 15480, 15530, 15700, 15760, 15800} // innermost first; one inner pass ran slow
	self := selfTimes(passes)
	var total float64
	for _, s := range self {
		total += s
	}
	if math.Abs(total-passes[len(passes)-1]) > 1e-9 {
		t.Errorf("self times sum to %v, outermost pass is %v", total, passes[len(passes)-1])
	}
	if self[0] != 40 || self[1] != 15460 || self[2] != -20 {
		t.Errorf("self times %v", self)
	}
}

// fakeClock only moves when someone sleeps on it or a request takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	due := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond, 100 * time.Millisecond}
	service := []time.Duration{5 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	var order []int
	samples := runPaced(clk, 1, due, func(_, i int) int {
		order = append(order, i)
		clk.Sleep(service[i])
		return 1
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("sent in order %v", order)
	}
	want := []pacedSample{
		{late: 0, latency: 5 * time.Millisecond, ok: 1},
		// Due at 11 ms but the only connection is busy until 15: sent 4 ms
		// late, and the caller waited 5 ms, not the 1 ms the server took.
		{late: 4 * time.Millisecond, latency: 5 * time.Millisecond, ok: 1},
		{late: 4 * time.Millisecond, latency: 5 * time.Millisecond, ok: 1},
		// The backlog has drained: on time again.
		{late: 0, latency: time.Millisecond, ok: 1},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples\n got %+v\nwant %+v", samples, want)
	}
}

// The probe is fixed work — the same sum from every fresh table — and a
// run's slowdown is its mean reading over the reference, the extremes left
// out.
func TestHostProbe(t *testing.T) {
	if a, b := probeOnce(make([]uint64, probeTable)), probeOnce(make([]uint64, probeTable)); a != b {
		t.Errorf("two repetitions on fresh tables summed to %d and %d", a, b)
	}
	p := newHostProbe(2)
	if got := p.slowdown(); got != 1 {
		t.Errorf("slowdown with no reading = %v, want 1", got)
	}
	p.read()
	if len(p.readings) != 1 || p.readings[0] <= 0 {
		t.Errorf("one read left readings %v, want one positive", p.readings)
	}
	// Ten readings: the stalled one and the fastest one are left out.
	p.readings = nil
	for _, r := range []float64{1.5, 40, 1.4, 1.6, 1.5, 1.5, 1.3, 1.7, 1.5, 0.2} {
		p.readings = append(p.readings, r*probeRefMs)
	}
	if got, want := p.slowdown(), math.Pow(1.5, probeSensitivity); math.Abs(got-want) > 1e-9 {
		t.Errorf("slowdown = %v, want 1.5 to the power of probeSensitivity, %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name        string
		m           metricSpec
		base, other []float64
		want        string
		wins        int // pairs in ledger order the other side won; a tie is nobody's
	}{
		{"same", lower, steady, steady, "ok", 0},
		{"slower within bound", lower, steady, []float64{108, 109, 107, 108}, "ok", 0},
		{"slower beyond bound", lower, steady, []float64{115, 116, 114, 115}, "REGRESSION", 0},
		{"faster", lower, steady, []float64{50, 51, 49, 50}, "ok", 4},
		{"less throughput", higher, steady, []float64{85, 86, 84, 85}, "REGRESSION", 0},
		{"more throughput", higher, steady, []float64{130, 131, 129, 130}, "ok", 4},
		{"too noisy to tell", lower, steady, []float64{80, 150, 100, 120}, "unresolved", 1},
		{"single runs", lower, []float64{100}, []float64{120}, "REGRESSION", 0},
	} {
		got := judge(c.m, c.base, c.other)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got.verdict, c.want)
		}
		if got.wins != c.wins || got.pairs != len(c.other) {
			t.Errorf("%s: other won %d of %d pairs, want %d of %d", c.name, got.wins, got.pairs, c.wins, len(c.other))
		}
	}
}

// Every name in BENCHMARK.json is well-formed, within the contract's
// limits, and one the harness knows: a workload it can run, a metric its
// source spells out.
func TestSpecNamesAreKnownToTheHarness(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	var source strings.Builder
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		source.Write(data)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !wellFormed.MatchString(m.Name) {
			t.Errorf("metric name %q is not well-formed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if !strings.Contains(source.String(), `"`+m.Name+`"`) {
			t.Errorf("metric %q is in %s but nowhere in the harness source", m.Name, specFile)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	// What the harness reports end to end is exactly what the contract names.
	if _, err := report(spec.EndToEnd, (&liveRun{probe: newHostProbe(1)}).endToEnd()); err != nil {
		t.Error(err)
	}
	for _, w := range spec.Workloads {
		if !wellFormed.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or already used", w.Name)
		}
		seen[w.Name] = true
		if _, ok := findWorkload(w.Name); !ok && w.Name != offlineWorkload {
			t.Errorf("workload %q is in %s but the harness cannot run it", w.Name, specFile)
		}
	}
}
