// Command medrelax builds the synthetic medical world, runs the offline
// knowledge source ingestion, and answers query relaxation requests — one
// shot with -term, or interactively over stdin.
//
// Usage:
//
//	medrelax -term pyelectasia -context Indication-hasFinding-Finding -k 10
//	medrelax            # interactive: one term per line
package main

import (
	"bufio"
	stdcontext "context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"medrelax"
	"medrelax/internal/engine"
	"medrelax/internal/persist"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "generation seed")
		scale   = flag.Int("world-scale", 0, "conditions per (body part, severity) pair; 0 = paper-scale default")
		term    = flag.String("term", "", "query term to relax (empty: interactive)")
		context = flag.String("context", medrelax.ContextIndication, "query context Domain-Relationship-Range (empty: context-free)")
		k       = flag.Int("k", 10, "number of results")
		mapper  = flag.String("mapper", "EMBEDDING", "term mapping method: EXACT, EDIT or EMBEDDING")
		quiet   = flag.Bool("quiet", false, "suppress build progress output")
		save    = flag.String("save", "", "after building, save the ingestion bundle to this file")
		format  = flag.String("format", "flat", "bundle format for -save: flat (what is served, zero-copy mmap) or json (inspectable; carries no -materialize/-index data)")

		materialize = flag.Bool("materialize", false, "precompute top-k relaxations for the head of the term distribution (persisted with -save)")
		matHead     = flag.Float64("materialize-head", 0.25, "fraction of flagged concepts (by corpus frequency) to materialize")
		matHeadMax  = flag.Int("materialize-head-max", 0, "cap on materialized head concepts (0: library default, -1: unlimited)")
		index       = flag.Bool("index", false, "build the candidate index of stored geometries (persisted with -save)")
		indexRadius = flag.Int("index-radius", 0, "candidate index hop radius (0: the serving MaxRadius, full dynamic-growth coverage)")
		load        = flag.String("load", "", "serve from a saved ingestion bundle instead of rebuilding the world")
		inspect     = flag.String("inspect", "", "print a bundle's format, sections and checksum status, then exit")
		secondSrc   = flag.Bool("second-source", false, "mount the variant vocabulary as a second named source (\"variant\") next to the primary")
		dot         = flag.String("dot", "", "write a Graphviz DOT neighbourhood of -term to this file and exit")
		dotHops     = flag.Int("dot-radius", 2, "hop radius of the -dot neighbourhood")
	)
	flag.Parse()

	// Before the build: a typo or an unsatisfiable pairing must not cost one.
	bundleFormat, err := persist.ParseFormat(*format)
	if err == nil && bundleFormat == persist.FormatJSON && (*materialize || *index) {
		err = persist.ErrDerivedInJSON
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "medrelax:", err)
		os.Exit(2)
	}

	if *inspect != "" {
		if err := inspectBundle(*inspect); err != nil {
			fmt.Fprintln(os.Stderr, "medrelax:", err)
			os.Exit(1)
		}
		return
	}

	if *load != "" {
		if err := serveFromBundle(*load, *term, *context, *k, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "medrelax:", err)
			os.Exit(1)
		}
		return
	}

	cfg := medrelax.DefaultConfig()
	cfg.Seed = *seed
	cfg.MapperName = *mapper
	cfg.EKS.ConditionsPerPair = *scale
	cfg.SecondSource = *secondSrc
	if *materialize {
		cfg.Ingest.Materialize.Enabled = true
		cfg.Ingest.Materialize.HeadFraction = *matHead
		cfg.Ingest.Materialize.HeadMax = *matHeadMax
	}
	if *index {
		cfg.Ingest.CandidateIndex.Enabled = true
		r := *indexRadius
		if r == 0 {
			r = cfg.Relax.MaxRadius
		}
		cfg.Ingest.CandidateIndex.Radius = r
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "building synthetic world and running ingestion ...")
	}
	sys, err := medrelax.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "medrelax:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "EKS: %d concepts, %d edges (%d shortcuts added); MED: %d instances; flagged concepts: %d\n",
			sys.World.Graph.Len(), sys.World.Graph.EdgeCount(), sys.Ingestion.ShortcutsAdded,
			sys.Med.Store.Len(), sys.Ingestion.FlaggedCount())
		tm := sys.Timings
		fmt.Fprintf(os.Stderr, "build timing: worldgen %s, embeddings %s, ingest %s (total %s)\n",
			tm.WorldGen.Round(time.Millisecond), tm.Embeddings.Round(time.Millisecond),
			tm.Ingest.Round(time.Millisecond), tm.Total.Round(time.Millisecond))
		if m := sys.Ingestion.Materialized; m != nil {
			fmt.Fprintf(os.Stderr, "materialized top-k: %d entries over %d head concepts\n", m.Entries(), m.Concepts())
		}
		if c := sys.Ingestion.Candidates; c != nil {
			fmt.Fprintf(os.Stderr, "candidate index: %d concepts, %d postings (radius %d, %d hubs skipped)\n",
				c.Concepts(), c.Postings(), c.Radius(), c.Skipped())
		}
	}
	if *save != "" {
		saveStart := time.Now()
		// Atomic write (temp + fsync + rename): a crash mid-save leaves the
		// previous bundle intact rather than a torn file at -save.
		if err := persist.SaveFileAtomic(*save, sys.Ingestion, bundleFormat); err != nil {
			fmt.Fprintln(os.Stderr, "medrelax: saving bundle:", err)
			os.Exit(1)
		}
		if !*quiet {
			size := int64(0)
			if st, err := os.Stat(*save); err == nil {
				size = st.Size()
			}
			fmt.Fprintf(os.Stderr, "ingestion bundle saved to %s (%s, %d bytes, %s)\n",
				*save, *format, size, time.Since(saveStart).Round(time.Millisecond))
		}
	}

	if *dot != "" {
		if err := writeDOT(sys, *term, *dot, *dotHops); err != nil {
			fmt.Fprintln(os.Stderr, "medrelax:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "DOT neighbourhood written to %s\n", *dot)
		}
		return
	}

	if *term != "" {
		if err := relaxOnce(sys, *term, *context, *k); err != nil {
			fmt.Fprintln(os.Stderr, "medrelax:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("enter a query term per line (ctrl-D to exit):")
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if err := relaxOnce(sys, line, *context, *k); err != nil {
			fmt.Println("  ", err)
		}
	}
}

func relaxOnce(sys *medrelax.System, term, context string, k int) error {
	results, err := sys.Relax(term, context, k)
	if err != nil {
		return err
	}
	fmt.Printf("relaxations of %q (context %s):\n", term, displayContext(context))
	for i, r := range results {
		names := make([]string, 0, len(r.Instances))
		for _, inst := range r.Instances {
			names = append(names, inst.Name)
		}
		fmt.Printf("%3d. %-50s score=%.4f hops=%d instances=[%s]\n",
			i+1, r.ConceptName, r.Score, r.Hops, strings.Join(names, "; "))
	}
	return nil
}

// serveFromBundle answers queries from a saved ingestion without
// regenerating the world or retraining embeddings, through the same
// engine.LoadSnapshot path kbserver cold-starts on.
func serveFromBundle(path, term, qctx string, k int, quiet bool) error {
	snap, err := engine.LoadSnapshot(path)
	if err != nil {
		return err
	}
	if !quiet {
		ing := snap.Ingestion()
		fmt.Fprintf(os.Stderr, "loaded bundle: %d EKS concepts, %d instances, %d flagged, %d contexts\n",
			ing.Graph.Len(), ing.Store.Len(), ing.FlaggedCount(), len(ing.Contexts))
	}

	relax := func(q string) error {
		resp := snap.RelaxBatch(stdcontext.Background(), []engine.Request{{Term: q, Context: qctx, K: k}})[0]
		if resp.Err != nil {
			return resp.Err
		}
		fmt.Printf("relaxations of %q (context %s):\n", q, displayContext(qctx))
		for i, r := range resp.Results {
			fmt.Printf("%3d. %-50s score=%.4f hops=%d instances=[%s]\n",
				i+1, r.Concept, r.Score, r.Hops, strings.Join(r.Instances, "; "))
		}
		return nil
	}

	if term != "" {
		return relax(term)
	}
	fmt.Println("enter a query term per line (ctrl-D to exit):")
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if err := relax(line); err != nil {
			fmt.Println("  ", err)
		}
	}
	return nil
}

// writeDOT renders the term's EKS neighbourhood (flagged concepts
// highlighted, shortcut edges dashed with distances) for Graphviz.
func writeDOT(sys *medrelax.System, term, path string, radius int) error {
	if term == "" {
		return fmt.Errorf("-dot requires -term")
	}
	ids := sys.World.Graph.LookupName(term)
	if len(ids) == 0 {
		return fmt.Errorf("term %q not found in the external knowledge source", term)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = sys.World.Graph.WriteDOT(f, ids[0], radius, sys.FlaggedSet())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// inspectBundle prints a bundle's structure without restoring it: format
// version, per-section names and sizes, per-section and whole-file CRC
// status, the named sources a federated bundle carries and how deep its
// materialized store is.
func inspectBundle(path string) error {
	info, err := persist.InspectFile(path)
	if info == nil {
		return err
	}
	status := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAILED"
	}
	if err != nil {
		// A retired form: what the file says it is, then why nothing reads it.
		fmt.Printf("%s: %s (version %d), %d bytes\n", path, info.Format, info.Version, info.SizeBytes)
	} else {
		fmt.Printf("%s: %s (version %d), %d bytes, checksums %s\n",
			path, info.Format, info.Version, info.SizeBytes, status(info.CRCOK))
	}
	if len(info.Sources) > 0 {
		fmt.Printf("secondary sources: %s\n", strings.Join(info.Sources, ", "))
	}
	if d := info.Store; d != nil {
		fmt.Printf("materialized store: %d entries, %d candidates, depth max %d median %d, %d complete (%.1f%%)\n",
			d.Entries, d.Candidates, d.MaxDepth, d.MedianDepth, d.Complete, 100*float64(d.Complete)/float64(d.Entries))
	}
	for _, s := range info.Sections {
		fmt.Printf("  %-22s kind=%-3d off=%-10d len=%-10d crc=%s\n",
			s.Name, s.Kind, s.Offset, s.Length, status(s.CRCOK))
	}
	if err == nil && !info.CRCOK {
		err = fmt.Errorf("bundle %s failed checksum verification", path)
	}
	return err
}

func displayContext(ctx string) string {
	if ctx == "" {
		return "none"
	}
	return ctx
}
