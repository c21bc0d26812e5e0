package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample at or
// below it. Nearest rank never interpolates past the sample, so a p95 over
// 240 values is a latency some request actually saw.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is how the benchmark's acceptance rule
// is stated; it needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against. Fewer than two
// values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// completion is one finished closed-loop request: when it finished, counted
// from the start of its block, and how many correct operations it carried
// (16 for a batch, 0 for a failure).
type completion struct {
	done time.Duration
	ops  int
}

// blockRate is a saturate block's rate of correct operations per second.
// Round trips that finish after the block's dur are not counted.
func blockRate(done []completion, dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	ops := 0
	for _, c := range done {
		if c.done >= 0 && c.done < dur {
			ops += c.ops
		}
	}
	return float64(ops) / dur.Seconds()
}

// selfTimes turns per-pass totals, ordered innermost first, into each
// layer's self time: the outermost pass minus the next-inner one, and so on
// down. The self times telescope: they sum to the outermost pass exactly.
func selfTimes(passTotals []float64) []float64 {
	self := make([]float64, len(passTotals))
	for i, t := range passTotals {
		self[i] = t
		if i > 0 {
			self[i] -= passTotals[i-1]
		}
	}
	return self
}
