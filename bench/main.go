// Command bench is the one benchmark of medrelax: six named workloads at
// paper-order scale against the real kbserver and kbrouter binaries, the
// end-to-end metrics a user of the system sees, and — in a separate traced
// run — the per-layer budget behind them. BENCHMARK.json at the root of the
// repo names every metric, unit, bound and workload; README.md in this
// directory is the glossary.
//
// One run (what BENCHMARK.json's command does):
//
//	bash bench/run.sh --workload warm_zipf --seed 1 --seconds 10 --trace 0
//
// The whole ledger, every workload end to end and traced, three times:
//
//	bash bench/run.sh -seed 1 -out bench/out/result.json
//
// Two ledgers against each other, two checkouts measured in alternating
// pairs and then compared, and the CI smoke:
//
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -pairs ../parent .
//	bash bench/run.sh -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// fatal stops every child before exiting: no error path leaves a server
// behind.
func fatal(err error) {
	stopAll()
	logf("%v", err)
	os.Exit(1)
}

// record is one run as the ledger file keeps it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
}

type ledger struct {
	Runs []record `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line (empty: the whole ledger into -out)")
		seed         = flag.Int64("seed", 1, "seed of the request streams and arrival schedules; worlds are fixed")
		seconds      = flag.Int("seconds", 0, "how long one run measures (0: run_seconds of "+specFile+")")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run and its per-layer metrics")
		out          = flag.String("out", "", "append every run to this ledger file, and its spans to bench/out/spans.jsonl (default with no -workload: bench/out/result.json)")
		compare      = flag.Bool("compare", false, "compare two ledger files given as arguments under the bounds of "+specFile)
		pairs        = flag.Bool("pairs", false, "measure two checkouts given as arguments against each other in alternating pairs of runs, then compare them")
		smoke        = flag.Bool("smoke", false, "miss_small on a plain w2k for 2 s plus the golden and reference checks")
	)
	flag.Parse()
	killOnSignal()

	spec, err := loadSpec(specFile)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		regressed, err := compareLedgers(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	ws, err := openWorkspace()
	if err != nil {
		fatal(err)
	}
	if err := quietProgramLog(ws); err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	h := &harness{ws: ws, spec: spec}

	switch {
	case *pairs:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-pairs takes two checkout directories, base first"))
		}
		regressed, err := h.runPairs(os.Stdout, flag.Arg(0), flag.Arg(1), *seed)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *smoke:
		if err := h.smoke(*seed); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		if *out == "" {
			// A run on its own leaves its own spans; runs of one ledger add up.
			if err := os.Remove(ws.spansPath()); err != nil && !os.IsNotExist(err) {
				fatal(err)
			}
		}
		rec, err := h.run(*workloadName, *seed, *seconds, *trace)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendLedger(*out, rec); err != nil {
				fatal(err)
			}
		}
		if err := printResult(rec.result); err != nil {
			fatal(err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		if *out == "" {
			*out = filepath.Join("bench", "out", "result.json")
		}
		if err := h.runAll(*out, *seed, *seconds); err != nil {
			fatal(err)
		}
	}
}

// printResult writes the one line the driver reads: the last of standard
// output.
func printResult(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// quietProgramLog sends the program's own log lines (bundle loads, router
// probes — the harness links the same packages for its in-process passes)
// to a file, keeping standard error for the harness.
func quietProgramLog(ws *workspace) error {
	dir := filepath.Join(ws.root, "bench", "out", "logs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "harness.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	log.SetOutput(f)
	return nil
}

type harness struct {
	ws   *workspace
	spec *benchSpec
}

// run executes one workload in one trace mode and packages the result
// under the names and units of BENCHMARK.json.
func (h *harness) run(name string, seed int64, seconds, trace int) (record, error) {
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace}
	measure := time.Duration(seconds) * time.Second
	var (
		values map[string]float64
		err    error
	)
	specs := h.spec.EndToEnd
	if trace != 0 {
		specs = h.spec.PerLayer
	}
	if name == offlineWorkload {
		values, rec.result, err = runOffline(h.ws, trace != 0)
	} else {
		wl, ok := findWorkload(name)
		if !ok {
			return rec, fmt.Errorf("unknown workload %q", name)
		}
		values, rec.result, err = runServing(h.ws, wl, seed, measure, trace != 0)
	}
	if err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	if trace != 0 {
		values = withZeros(specs, values)
	}
	if rec.Metrics, err = report(specs, values); err != nil {
		return rec, err
	}
	return rec, nil
}

// withZeros fills in the per-layer metrics a workload has no layer for:
// the contract wants every name on every traced run, and a layer that did
// no work measured zero.
func withZeros(specs []metricSpec, values map[string]float64) map[string]float64 {
	for _, m := range specs {
		if _, ok := values[m.Name]; !ok {
			values[m.Name] = 0
		}
	}
	return values
}

// workloadNames lists every workload of the harness. The ledger and -pairs
// run them all; BENCHMARK.json names the ones the driver gates on.
func workloadNames() []string {
	names := make([]string, 0, len(servingWorkloads)+1)
	for _, w := range servingWorkloads {
		names = append(names, w.name)
	}
	return append(names, offlineWorkload)
}

// ledgerRepeats is how many times the ledger runs each workload in each
// trace mode, so that it records a spread.
const ledgerRepeats = 3

// runAll is the whole ledger: every workload, end to end and traced,
// ledgerRepeats times. Each run is a process of its own, exactly as the
// driver runs them — a fresh heap, a fresh peak RSS — appending to out and
// to the span file; the table is printed at the end.
func (h *harness) runAll(out string, seed int64, seconds int) error {
	for _, stale := range []string{out, h.ws.spansPath()} {
		if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for r := 0; r < ledgerRepeats; r++ {
		for _, name := range workloadNames() {
			for trace := 0; trace <= 1; trace++ {
				logf("run %d/%d: %s trace=%d", r+1, ledgerRepeats, name, trace)
				cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
				cmd.Stderr = os.Stderr
				if err := runChild(cmd); err != nil {
					return fmt.Errorf("%s trace=%d: %w", name, trace, err)
				}
			}
		}
	}
	l, err := readLedger(out)
	if err != nil {
		return err
	}
	printLedger(os.Stdout, h.spec, l)
	for _, rec := range l.Runs {
		if rec.Failed > 0 {
			return fmt.Errorf("%s (trace=%d): %d of %d operations failed", rec.Workload, rec.Trace, rec.Failed, rec.Attempted)
		}
	}
	return nil
}

// ledgerRun is the run the ledger is waiting for, so an interrupt can pass
// the signal on; that process stops its own servers.
var ledgerRun atomic.Pointer[os.Process]

// runChild runs one benchmark run as a process of its own and waits for it.
func runChild(cmd *exec.Cmd) error {
	if err := startChild(cmd); err != nil {
		return err
	}
	ledgerRun.Store(cmd.Process)
	err := cmd.Wait()
	ledgerRun.Store(nil)
	return err
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &l, nil
}

func appendLedger(path string, rec record) error {
	l, err := readLedger(path)
	if os.IsNotExist(err) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, rec)
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// series collects one metric's values over the runs of one workload.
func (l *ledger) series(workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (l *ledger) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range l.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// printLedger prints every metric by name with its unit: median over the
// recorded runs, their spread, and how many there were.
func printLedger(w *os.File, spec *benchSpec, l *ledger) {
	for _, wl := range l.workloads() {
		attempted, failed := 0, 0
		for _, r := range l.Runs {
			if r.Workload == wl {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
		}
		fmt.Fprintf(w, "\n%s  (attempted %d, failed %d)\n", wl, attempted, failed)
		for trace, specs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			names := make([]metricSpec, len(specs))
			copy(names, specs)
			if trace == 1 {
				sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
			}
			for _, m := range names {
				v := l.series(wl, trace, m.Name)
				if len(v) == 0 || (trace == 1 && median(v) == 0 && spread(v) == 0) {
					continue // not recorded, or a layer this workload does not have
				}
				fmt.Fprintf(w, "  %-36s %14.4f %-6s spread %5.1f%%  n=%d\n", m.Name, median(v), m.Unit, 100*spread(v), len(v))
			}
		}
	}
}
