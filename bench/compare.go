package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// compareLedgers applies each end-to-end metric's bound from BENCHMARK.json
// to two ledgers, base first. One row per (workload, metric): both medians,
// the ratio with its base, and a verdict. A pair whose recorded run-to-run
// spread exceeds the bound is unresolved, not unchanged: the benchmark
// cannot tell at that noise level. Returns true on a regression or when
// the share of failed operations rose.
func compareLedgers(w io.Writer, spec *benchSpec, basePath, otherPath string) (bool, error) {
	base, err := readLedger(basePath)
	if err != nil {
		return false, err
	}
	other, err := readLedger(otherPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-18s %12s %12s  %-22s %7s %7s %10s  %s\n", "workload", "metric", "base", "other", "ratio (other/base)", "spread", "bound", "other wins", "verdict")
	for _, wl := range base.workloads() {
		for _, m := range spec.EndToEnd {
			a, b := base.series(wl, 0, m.Name), other.series(wl, 0, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			row := judge(m, a, b)
			if row.verdict == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f  %6.3f of %-12.4f %6.1f%% %6.1f%% %4d of %-2d  %s\n",
				wl, m.Name, row.base, row.other, row.ratio, row.base, 100*row.spread, 100*m.Bound, row.wins, row.pairs, row.verdict)
		}
		ea, eb := base.errorShare(wl), other.errorShare(wl)
		verdict := "ok"
		if eb > ea {
			verdict, regressed = "REGRESSION", true
		}
		fmt.Fprintf(w, "%-14s %-18s %12.6f %12.6f  %-22s %7s %7s %10s  %s\n", wl, "error_share", ea, eb, "may not rise", "", "", "", verdict)
	}
	return regressed, nil
}

type comparison struct {
	base, other float64 // medians
	ratio       float64 // other / base
	spread      float64 // the wider of the two sides' interquartile spreads
	wins, pairs int     // runs paired in ledger order: how many the other side won, ties counting for neither
	verdict     string
}

// judge compares one metric's runs on two sides under its bound.
func judge(m metricSpec, base, other []float64) comparison {
	c := comparison{base: median(base), other: median(other), spread: max(spread(base), spread(other))}
	if c.base != 0 {
		c.ratio = c.other / c.base
	}
	c.pairs = min(len(base), len(other))
	for i := 0; i < c.pairs; i++ {
		if (m.Better == "higher" && other[i] > base[i]) || (m.Better != "higher" && other[i] < base[i]) {
			c.wins++
		}
	}
	worse := c.ratio - 1
	if m.Better == "higher" {
		worse = 1 - c.ratio
	}
	switch {
	case c.spread > m.Bound:
		c.verdict = "unresolved"
	case worse > m.Bound:
		c.verdict = "REGRESSION"
	default:
		c.verdict = "ok"
	}
	return c
}

// errorShare is failed over attempted operations across a workload's runs.
func (l *ledger) errorShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range l.Runs {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// abPairs is how many pairs of runs -pairs makes per workload; the
// choosing-metrics guide asks for at least ten before a claim.
const abPairs = 10

// runPairs measures two checkouts against each other on a host whose speed
// wanders: per workload, abPairs pairs of untraced runs, one in either
// checkout, alternating which side goes first so that both see the same
// states of the host. Every run is a process of its own through its
// checkout's bench/run.sh. The ledgers land in bench/out/a.json and b.json
// of this checkout and are then compared, base first.
func (h *harness) runPairs(w io.Writer, dirA, dirB string, seed int64) (bool, error) {
	ledgers := [2]string{filepath.Join(h.ws.root, "bench", "out", "a.json"), filepath.Join(h.ws.root, "bench", "out", "b.json")}
	for _, stale := range ledgers {
		if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
			return false, err
		}
	}
	dirs := [2]string{dirA, dirB}
	for pair := 0; pair < abPairs; pair++ {
		for _, name := range workloadNames() {
			for i := 0; i < 2; i++ {
				side := (pair + i) % 2
				logf("pair %d/%d: %s in %s", pair+1, abPairs, name, dirs[side])
				cmd := exec.Command("bash", "bench/run.sh", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-out", ledgers[side])
				cmd.Dir = dirs[side]
				cmd.Stderr = os.Stderr
				if err := runChild(cmd); err != nil {
					return false, fmt.Errorf("%s in %s: %w", name, dirs[side], err)
				}
			}
		}
	}
	return compareLedgers(w, h.spec, ledgers[0], ledgers[1])
}
