package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark host is a few vCPUs of a shared machine whose speed moves
// with its neighbours: the same binary serves a cache hit 1.5 to 2 times
// slower minutes later, CPU time inflating with it, in swings that outlast a
// run (README, "Host noise"). No statistic inside a run sees past that, so
// every run measures the host next to the program: a fixed piece of work —
// none of it code under test — is timed between the measured blocks, and the
// run's time-based metrics are reported at the speed of a reference host,
// the one on which that work takes probeRefMs.

// probeRefMs is what one probe repetition takes on the reference host: about
// the middle of what the sizing host read over an afternoon (0.75 ms at its
// fastest, 1.33 at its slowest). Frozen: it only fixes the unit the time
// metrics read in.
const probeRefMs = 1.0

// probeSensitivity is how much of the probe's movement the program's times
// show: over three sets of ten or twelve seeds of the gated workloads, two of
// them taken while the host wandered by 1.5 times, a run's times followed its
// probe readings with a correlation of 0.9 and more but to the power of 0.5
// to 1.3 depending on the metric, and dividing by the readings to the power
// of 0.8 left the sets the least spread (summed over workloads and metrics:
// 622 percentage points uncorrected, 371 at power 1, 288 at 0.8, 348 at
// 0.5). The probe is compute- and cache-bound through and through; a serving
// process also waits on the kernel and on memory, which the neighbours slow
// less. Frozen, like the paced rates.
const probeSensitivity = 0.8

// probeReps is how many repetitions each worker runs per reading: ~5 ms
// between blocks of a few hundred.
const probeReps = 5

type probeDoc struct {
	Term    string            `json:"term"`
	Context string            `json:"context"`
	K       int               `json:"k"`
	Results []probeResult     `json:"results"`
	Meta    map[string]string `json:"meta"`
}

type probeResult struct {
	Concept   string   `json:"concept"`
	Score     float64  `json:"score"`
	Hops      int      `json:"hops"`
	Instances []string `json:"instances"`
}

var probeInput = func() probeDoc {
	d := probeDoc{Term: "chronic pneumonia", Context: ctxIndication, K: 10,
		Meta: map[string]string{"path": "materialized", "tenant": "default", "source": "primary"}}
	for i := 0; i < 10; i++ {
		d.Results = append(d.Results, probeResult{Concept: "concept number " + strconv.Itoa(i), Score: 0.5 + float64(i)/100,
			Hops: i % 4, Instances: []string{"drug a", "drug b", "drug c" + strconv.Itoa(i)}})
	}
	return d
}()

const probeTable = 1 << 16 // 512 KB of uint64: resident in L2, not in L1

// probeOnce is one repetition: a serial integer chain walking a
// cache-resident table, then what a serving process does all day with the
// standard library — encode and decode a response-sized document, hash it,
// build strings, fill a map. The sum is returned so that none of it is dead
// code.
func probeOnce(table []uint64) uint64 {
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += table[x&(probeTable-1)]
		table[(x>>20)&(probeTable-1)] = sum
	}
	seen := map[string]int{}
	for i := 0; i < 20; i++ {
		body, err := json.Marshal(probeInput)
		if err != nil {
			panic(err) // a fixed, marshalable value: only a bug gets here
		}
		var back probeDoc
		if err := json.Unmarshal(body, &back); err != nil {
			panic(err)
		}
		digest := sha256.Sum256(body)
		seen[back.Results[i%len(back.Results)].Concept+strconv.Itoa(i)] = int(digest[0])
		sum += uint64(len(strings.ToUpper(back.Term)) + len(seen))
	}
	return sum
}

// hostProbe keeps the probe's readings of one run.
type hostProbe struct {
	workers  int
	tables   [][]uint64
	readings []float64 // ms: the median repetition of each reading
	sink     uint64
}

func newHostProbe(workers int) *hostProbe {
	p := &hostProbe{workers: workers}
	for i := 0; i < workers; i++ {
		p.tables = append(p.tables, make([]uint64, probeTable))
	}
	return p
}

// read takes one reading: probeReps repetitions on every worker at once, as
// many threads as the measured blocks keep busy, each on a table of its own
// so that the workers share no cache line. The reading is the median
// repetition, so one that was preempted does not count.
func (p *hostProbe) read() {
	times := make([][]float64, p.workers)
	sums := make([]uint64, p.workers)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < probeReps; i++ {
				start := time.Now()
				sums[w] += probeOnce(p.tables[w])
				times[w] = append(times[w], ms(time.Since(start)))
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for w := range times {
		all = append(all, times[w]...)
		p.sink += sums[w]
	}
	p.readings = append(p.readings, median(all))
}

// slowdown is how many times slower than on the reference host the program
// ran on this run's host: the mean reading, the highest and the lowest tenth
// left out, over probeRefMs, to the power of probeSensitivity. The host's
// speed moves from one reading to the next (0.7 to 2
// ms within one run), and the measured blocks between them average over the
// same movement; of the estimators tried on a dozen runs of each workload
// (median or mean of all repetitions, of the readings' medians or minima)
// this one left the metrics the least run-to-run spread. A run that never
// read the probe has no opinion.
func (p *hostProbe) slowdown() float64 {
	if len(p.readings) == 0 {
		return 1
	}
	s := append([]float64(nil), p.readings...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, r := range s {
		sum += r
	}
	return math.Pow(sum/float64(len(s))/probeRefMs, probeSensitivity)
}
