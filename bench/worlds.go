package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"medrelax"
	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/eval"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/persist"
	"medrelax/internal/synthkb"
)

// World seeds are fixed so testdata/relax_golden.json applies to w2k and so
// that -seed moves the request streams and nothing else.
const (
	worldSeed   = 42
	medSeed     = 43
	corpusSeed  = 44
	w100kTarget = 100_000
)

const goldenFile = "testdata/relax_golden.json"

// buildDir holds what a run leaves behind that a later run in the same
// checkout may reuse: the toolchain's caches, the server binaries, and the
// two bundles.
const buildDir = ".bench_build"

// sourceStamp hashes everything a bundle depends on: go.mod and every Go
// file of the checkout outside this directory, this file's world
// definitions, and the golden file the w2k build is checked against. A
// bundle carries the stamp it was built under, so a checkout whose program
// or golden file changed rebuilds — and re-checks — instead of serving
// yesterday's; the rest of the harness cannot change a bundle.
func sourceStamp(root string) (string, error) {
	files := []string{filepath.Join(root, "bench", "worlds.go"), filepath.Join(root, goldenFile)}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workspace is one checkout's view of the cache.
type workspace struct {
	root  string
	stamp string
}

func openWorkspace() (*workspace, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", specFile, "cmd/kbserver", goldenFile} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("not at the root of a medrelax checkout: %w", err)
		}
	}
	stamp, err := sourceStamp(root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	return &workspace{root: root, stamp: stamp}, nil
}

func (ws *workspace) path(name string) string { return filepath.Join(ws.root, buildDir, name) }

// buildServers builds cmd/kbserver and cmd/kbrouter, the real programs every
// end-to-end number comes from. The go command's own cache makes an
// unchanged build a no-op.
func (ws *workspace) buildServers() error {
	cmd := exec.Command("go", "build", "-o", ws.path("bin")+string(filepath.Separator), "./cmd/kbserver", "./cmd/kbrouter")
	cmd.Dir = ws.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build of the server binaries: %w", err)
	}
	return nil
}

// fresh reports whether the named bundle was built from this source tree.
func (ws *workspace) fresh(name string) bool {
	got, err := os.ReadFile(ws.path(name + ".stamp"))
	if err != nil || string(got) != ws.stamp {
		return false
	}
	_, err = os.Stat(ws.path(name))
	return err == nil
}

// markFresh is written last, after the bundle is complete on disk, so an
// interrupted build is rebuilt rather than trusted.
func (ws *workspace) markFresh(name string) error {
	return os.WriteFile(ws.path(name+".stamp"), []byte(ws.stamp), 0o644)
}

// ensureBundle returns the flat bundle of the named world, building it when
// the cache has none for this tree.
func (ws *workspace) ensureBundle(world string) (string, error) {
	name := world + ".flat"
	// The plain world builds in a second, golden check included; it is
	// cheaper to build than to trust.
	if world != "w2kplain" && ws.fresh(name) {
		return ws.path(name), nil
	}
	logf("building the %s bundle (cached in %s for later runs)", world, buildDir)
	var err error
	switch world {
	case "w100k":
		var gen *generated
		if gen, err = generateW100k(); err == nil {
			_, err = ingestW100k(gen, ws.path(name), func() {})
		}
	case "w2k":
		err = buildW2k(ws.root, ws.path(name), true)
	case "w2kplain":
		err = buildW2k(ws.root, ws.path(name), false)
	default:
		err = fmt.Errorf("unknown world %q", world)
	}
	if err != nil {
		return "", fmt.Errorf("building %s: %w", world, err)
	}
	return ws.path(name), ws.markFresh(name)
}

// cpuTime is this process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// generated is a w100k world before ingestion. core.Ingest customises the
// graph in place, so every build needs a fresh one.
type generated struct {
	med      *medkb.MED
	graph    *eks.Graph
	corpus   *corpus.Corpus
	synthGen time.Duration
	medGen   time.Duration
}

// generateW100k is the default synthkb/medkb world padded to 100,000
// concepts with unflagged leaf variants under the findings, exactly as
// benchWorld in bench_ingest_test.go pads: a SNOMED-order graph around a KB
// of unchanged size, the large sparse shape the paper's source has.
func generateW100k() (*generated, error) {
	start := time.Now()
	w, err := synthkb.Generate(synthkb.Config{Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	synthGen := time.Since(start)
	start = time.Now()
	med, err := medkb.Generate(w, medkb.Config{Seed: medSeed})
	if err != nil {
		return nil, err
	}
	corp := medkb.BuildCorpus(w, med, medkb.CorpusConfig{Seed: corpusSeed})
	medGen := time.Since(start)

	start = time.Now()
	g := w.Graph
	next := eks.ConceptID(1)
	for _, id := range g.ConceptIDs() {
		if id >= next {
			next = id + 1
		}
	}
	for i := 0; g.Len() < w100kTarget; i++ {
		parent := w.Findings[i%len(w.Findings)]
		if err := g.AddConcept(eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of %d", i, parent)}); err != nil {
			return nil, err
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			return nil, err
		}
		next++
	}
	synthGen += time.Since(start)
	return &generated{med: med, graph: g, corpus: corp, synthGen: synthGen, medGen: medGen}, nil
}

// servingRelax is what engine.New serves a bundle with when nothing says
// otherwise; materializing under it is what makes the stored answers
// attachable by a default-flag kbserver.
var servingRelax = core.RelaxOptions{Radius: 3, DynamicRadius: true}

// offlineBuild is the cost record of one w100k build.
type offlineBuild struct {
	synthGen, medGen   time.Duration
	ingest, ingestCPU  time.Duration
	materialize, save  time.Duration
	buildCPU           time.Duration
	ingestAllocs       uint64
	shortcuts, entries int
	concepts           int
	bundleBytes        int64
	ingestion          *core.Ingestion
}

// ingestW100k runs the offline phase at paper-order graph size — EXACT
// mapper, default materialization head, no candidate index (65 M postings
// at this size: it cannot be built, see README) — and leaves a flat bundle
// at path. between runs after ingestion and after materialization, outside
// every timed stage.
func ingestW100k(gen *generated, path string, between func()) (*offlineBuild, error) {
	b := &offlineBuild{}
	cpu0, allocs0, start := cpuTime(), mallocs(), time.Now()
	ing, err := core.Ingest(gen.med.Ontology, gen.med.Store, gen.graph, gen.corpus, match.NewExact(gen.graph), core.IngestOptions{})
	if err != nil {
		return nil, err
	}
	b.ingest, b.ingestCPU, b.ingestAllocs = time.Since(start), cpuTime()-cpu0, mallocs()-allocs0
	b.buildCPU = cpuTime() - cpu0

	between()
	cpu0, start = cpuTime(), time.Now()
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	ing.Materialized = core.MaterializeTopK(ing, sim, core.MaterializeOptions{Relax: servingRelax, Contexts: ing.Contexts})
	b.materialize = time.Since(start)
	b.buildCPU += cpuTime() - cpu0

	between()
	cpu0, start = cpuTime(), time.Now()
	if err := persist.SaveFileAtomic(path, ing, persist.FormatFlat); err != nil {
		return nil, err
	}
	b.save = time.Since(start)
	b.buildCPU += cpuTime() - cpu0
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	b.bundleBytes = st.Size()
	b.shortcuts, b.entries, b.concepts = ing.ShortcutsAdded, ing.Materialized.Entries(), ing.Graph.Len()
	b.ingestion = ing
	return b, nil
}

// w2kConfig is `medrelax -materialize -index` at CLI defaults: the small
// dense world every number in BENCH_serve.json was taken on, and the only
// one whose candidate index can be built.
func w2kConfig(accelerated bool) medrelax.Config {
	cfg := medrelax.DefaultConfig()
	if accelerated {
		cfg.Ingest.Materialize.Enabled = true
		cfg.Ingest.Materialize.HeadFraction = 0.25
		cfg.Ingest.CandidateIndex.Enabled = true
		cfg.Ingest.CandidateIndex.Radius = cfg.Relax.MaxRadius
	}
	return cfg
}

// buildW2k builds the small world, checks it against the golden file, and
// saves it flat. The plain variant (no accelerators) is what -smoke serves.
func buildW2k(root, path string, accelerated bool) error {
	sys, err := medrelax.Build(w2kConfig(accelerated))
	if err != nil {
		return err
	}
	if err := checkGolden(root, sys); err != nil {
		return err
	}
	return persist.SaveFileAtomic(path, sys.Ingestion, persist.FormatFlat)
}

// checkGolden asserts Summarize(GoldenEntries(...)) on sys equals
// testdata/relax_golden.json: concept order, score bits, hop counts and
// instance lists of the pinned queries, through whatever accelerators sys
// was built with.
func checkGolden(root string, sys *medrelax.System) error {
	data, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return err
	}
	var want []medrelax.GoldenSummary
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parsing golden file: %w", err)
	}
	got, err := medrelax.Summarize(medrelax.GoldenEntries(sys, eval.SelectQueries(sys.Med, sys.Oracle, len(want))))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("golden mismatch: ranked output of the w2k system differs from testdata/relax_golden.json")
	}
	return nil
}
