// Package engine is the one immutable serving layer between the offline
// phase and everything that answers queries. Its central type is Snapshot:
// the frozen output of ingestion (customized EKS dense graph, mappings,
// frequencies, shortcuts, relaxer, term index) behind a read-only,
// concurrency-safe API. Every consumer — the medrelax facade, the HTTP
// server, the production serving stack, the chaos harness, the CLIs —
// constructs or loads exactly this type, so there is a single assembly of
// "EKS + ingest artifacts + relaxer" in the whole program, and hot reload
// is an atomic swap of whole Snapshots (internal/serving).
package engine

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/persist"
	"medrelax/internal/trace"
)

// RelaxResult is one JSON-ready relaxed answer, with concepts and
// instances resolved to surface names. The HTTP layer re-exports it as
// server.RelaxResult.
//
// Sources and Explain are attribution extensions: Sources lists the named
// external knowledge sources that contributed the result (multi-source
// snapshots always, single-source snapshots only under explain mode), and
// Explain carries the relaxation path when the request asked for it. Both
// are omitted when unset, so classic single-source explain=false responses
// serialize byte-identically to earlier versions.
type RelaxResult struct {
	Concept   string   `json:"concept"`
	Score     float64  `json:"score"`
	Hops      int      `json:"hops"`
	Instances []string `json:"instances"`
	Sources   []string `json:"sources,omitempty"`
	Explain   *Explain `json:"explain,omitempty"`
}

// ExplainEdge is one traversed edge of an explained relaxation path:
// concept names, the hop direction relative to the query endpoint, and the
// original (pre-customization) semantic distance the edge carries — 1 for a
// native subsumption, the attached distance for a shortcut.
type ExplainEdge struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Direction string `json:"direction"` // "generalization" or "specialization"
	Dist      int    `json:"dist"`
}

// Explain is the relaxation-path explanation attached to a result under
// explain mode: the canonical up-then-down path from the query concept
// through the deterministic least-common-subsumer representative to the
// candidate, its Eq. 4 path weight (bit-identical to the weight the ranked
// score used), and the name of the source EKS the path runs in.
type Explain struct {
	Source          string        `json:"source"`
	Query           string        `json:"query"`
	Subsumer        string        `json:"subsumer"`
	Subsumers       []string      `json:"subsumers,omitempty"`
	Generalizations int           `json:"generalizations"`
	Specializations int           `json:"specializations"`
	PathWeight      float64       `json:"pathWeight"`
	Edges           []ExplainEdge `json:"edges"`
}

// Request is one relax request as the wire spells it: a query term, the
// query context as a Domain-Relationship-Range string ("" for none), and k.
// It is the JSON form of a POST /relax/batch item.
type Request struct {
	Term    string `json:"term"`
	Context string `json:"context"`
	K       int    `json:"k"`
	// Explain asks for source attribution and the relaxation path on every
	// result. On the wire it is the explain=true URL parameter of the whole
	// HTTP request, never part of an item.
	Explain bool `json:"-"`
	// NoStore asks that the answer neither come from nor go into a result
	// cache. On the wire it is the HTTP request's `Cache-Control: no-store`
	// header, for a GET and for every item of a batch alike. A Snapshot
	// caches nothing and ignores it.
	NoStore bool `json:"-"`
}

// Response answers one Request: Results on success, Err otherwise — wrapping
// core.ErrUnknownTerm, core.ErrBadContext or the context's error. Path
// reports which compute path answered (meaningful only when Err is nil) and
// Decline is core.Response's: why the materialized store passed on a query it
// holds an entry for.
type Response struct {
	Results []RelaxResult
	Path    core.ServePath
	Decline string
	Err     error
}

// Config tunes Snapshot assembly. The zero value serves a loaded bundle:
// combined exact/edit/lookup term mapping, default relaxation radius, no
// conversations.
type Config struct {
	// Relax configures the online phase; zero values pick the defaults of
	// core.RelaxOptions plus DynamicRadius (the serving shape).
	Relax core.RelaxOptions
	// Mapper resolves query terms; nil assembles the bundle mapper (exact
	// match, then edit distance, then the lookup service) over the graph,
	// adopting the resolver a flat bundle carries and building it otherwise.
	Mapper match.Mapper
	// Conversation opens a relaxation-backed dialogue; nil disables /chat.
	Conversation func() (*dialog.Conversation, error)
	// ExtraStats is merged over the base Stats map (world metadata only a
	// richer builder knows, e.g. corpus and embedding sizes).
	ExtraStats func() map[string]any
	// Source names where the snapshot came from (bundle path, or "" for an
	// in-process build); reported in Stats.
	Source string
}

// Snapshot is a frozen, servable relaxation world. All fields are set at
// construction and never mutated, so every method is safe for unbounded
// concurrent use; replacing a world means building a new Snapshot and
// swapping the pointer (internal/serving).
type Snapshot struct {
	ing     *core.Ingestion
	relaxer *core.Relaxer
	cfg     Config
	// terms is the precomputed term index: flagged-concept names in
	// deterministic (ID) order, the realistic query mix GET /terms serves.
	terms []string
	// names holds, per flagged concept of the primary ingestion, the surface
	// names of its instances in InstancesForConcept order. Every answer that
	// lists the concept shares the one slice, so a cached answer costs its
	// result headers and nothing per instance.
	names map[eks.ConceptID][]string
	// arms are the mounted sources in mount order; arms[0] is always the
	// primary (the ingestion itself). A single-source snapshot has exactly
	// one arm and serves through its relaxer alone; with secondaries present
	// RelaxBatch fuses per-arm answers (see federate.go).
	arms []sourceArm
	// lookup is the bundle mapper's term resolver, adopted with the ingestion
	// or built by New; nil under a caller's own Config.Mapper.
	lookup *match.LookupService
	// matActive / idxActive record whether the ingestion's offline
	// accelerations were attached to the relaxer (they are refused when
	// their build options cannot reproduce the serving configuration).
	matActive, idxActive bool
}

// New assembles a Snapshot over an ingestion: freezes the dense graph
// index, builds the similarity evaluator and relaxer, and precomputes the
// term index. The ingestion must not be mutated afterwards — the Snapshot
// owns it.
func New(ing *core.Ingestion, cfg Config) *Snapshot {
	if cfg.Relax.Radius == 0 {
		// A bundle that carries a materialized store records the exact
		// serving shape it was built for; adopting it keeps a CLI-built
		// accelerated bundle servable after a plain -load, instead of the
		// store being refused over a defaults mismatch. An explicit
		// cfg.Relax always wins — the store is then attached only if it
		// matches, as below.
		if ing.Materialized != nil {
			cfg.Relax = ing.Materialized.Options()
		} else {
			cfg.Relax = core.RelaxOptions{Radius: 3, DynamicRadius: true}
		}
	}
	var lookup *match.LookupService
	if cfg.Mapper == nil {
		cfg.Mapper, lookup = bundleMapper(ing)
	}
	ing.Graph.Freeze()
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	s := &Snapshot{
		ing:     ing,
		relaxer: core.NewRelaxer(ing, sim, cfg.Mapper, cfg.Relax),
		cfg:     cfg,
		terms:   flaggedTerms(ing),
		names:   instanceNames(ing),
		lookup:  lookup,
	}
	// Mount the source arms: the primary first, then each secondary with its
	// own combined mapper, similarity evaluator and relaxer over its graph.
	// Secondaries always serve the live path (their worlds are small; the
	// offline accelerations remain a primary-only optimization).
	s.arms = []sourceArm{{name: core.PrimarySourceName, ing: ing, sim: sim, relaxer: s.relaxer, mapper: cfg.Mapper}}
	for _, src := range ing.Sources {
		src.Ing.Graph.Freeze()
		m, _ := bundleMapper(src.Ing)
		ssim := core.NewSimilarity(src.Ing.Graph, src.Ing.Frequencies, src.Ing.Ontology)
		s.arms = append(s.arms, sourceArm{
			name:    src.Name,
			ing:     src.Ing,
			sim:     ssim,
			relaxer: core.NewRelaxer(src.Ing, ssim, m, cfg.Relax),
			mapper:  m,
		})
	}
	// Attach the ingestion's offline accelerations when their build options
	// match the serving configuration; a mismatched store is left unused
	// (the relaxer refuses it) and every query takes the live path.
	if ing.Materialized != nil {
		s.matActive = s.relaxer.SetMaterialized(ing.Materialized)
		if !s.matActive {
			log.Printf("engine: materialized store built under %+v does not match serving options %+v; ignoring",
				ing.Materialized.Options(), s.relaxer.Options())
		}
	}
	if ing.Candidates != nil {
		s.idxActive = s.relaxer.SetCandidateIndex(ing.Candidates)
		if !s.idxActive {
			why := "names flagged slots or graph nodes that are not this ingestion's"
			if have, want := ing.Candidates.Radius(), s.relaxer.Options().Radius; have < want {
				why = fmt.Sprintf("radius %d does not cover serving radius %d", have, want)
			}
			log.Printf("engine: candidate index %s; ignoring", why)
		}
	}
	return s
}

// bundleMapper chains exact match, edit distance and the lookup service over
// an ingestion's graph. The term resolver is the one adopted from the bundle's
// columns when the ingestion carries it, and tokenised here otherwise; the
// edit matcher shares its key signatures either way.
func bundleMapper(ing *core.Ingestion) (match.Mapper, *match.LookupService) {
	lookup := ing.Lookup
	if lookup == nil {
		lookup = match.NewLookupService(ing.Graph)
	}
	return match.NewCombined(match.NewExact(ing.Graph), lookup.Edit(0), lookup), lookup
}

// residency says where the snapshot's columns live: a flat bundle's in a file
// mapping ("mapped") or in one heap buffer ("heap"); a world built in process,
// or restored from another format, has no backing and reports "built".
func (s *Snapshot) residency() string {
	switch b := s.ing.Backing; {
	case b == nil:
		return "built"
	case b.Mapped():
		return "mapped"
	}
	return "heap"
}

// resolverResidency is residency for the bundle mapper's term resolver:
// adopted with the flat bundle's columns, or "built" when New tokenised the
// lexicon.
func (s *Snapshot) resolverResidency() string {
	if s.ing.Lookup == nil {
		return "built"
	}
	return s.residency()
}

// instanceNames resolves every flagged concept's instances to their surface
// names once, for resolve to hand out.
func instanceNames(ing *core.Ingestion) map[eks.ConceptID][]string {
	ids := ing.FlaggedIDs()
	out := make(map[eks.ConceptID][]string, len(ids))
	for _, id := range ids {
		instances := ing.InstancesForConcept(id)
		names := make([]string, 0, len(instances))
		for _, iid := range instances {
			if inst, ok := ing.Store.Instance(iid); ok {
				names = append(names, inst.Name)
			}
		}
		out[id] = names
	}
	return out
}

// flaggedTerms resolves the flagged concepts to names in ID order — the
// deterministic term index Terms slices from. FlaggedIDs is already
// ascending under both map and flat-mapped backings. With secondary sources
// mounted, their flagged names follow the primary's in mount order (each
// source's names in its own ID order, duplicates dropped), so load
// generators exercise terms only a secondary can answer.
func flaggedTerms(ing *core.Ingestion) []string {
	ids := ing.FlaggedIDs()
	out := make([]string, 0, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if c, ok := ing.Graph.Concept(id); ok {
			out = append(out, c.Name)
			seen[c.Name] = true
		}
	}
	for _, src := range ing.Sources {
		for _, id := range src.Ing.FlaggedIDs() {
			if c, ok := src.Ing.Graph.Concept(id); ok && !seen[c.Name] {
				out = append(out, c.Name)
				seen[c.Name] = true
			}
		}
	}
	return out
}

// LoadSnapshot builds a Snapshot from a persisted ingestion bundle: no
// world regeneration, no embedding training. This is the one cold-start
// path — kbserver startup, hot reload, the chaos harness, and the CLI all
// come through here, fault sites and CRC checks included. Conversations
// are unavailable because the bundle deliberately omits the synthetic
// world. Errors keep persist's typing: a corrupt file wraps
// persist.ErrCorruptBundle, a missing one fs.ErrNotExist.
func LoadSnapshot(path string) (*Snapshot, error) {
	loadStart := time.Now()
	ing, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := persist.ValidateForServing(ing); err != nil {
		return nil, err
	}
	loadDur := time.Since(loadStart)
	freezeStart := time.Now()
	snap := New(ing, Config{Source: path})
	residency := "heap"
	if ing.Backing != nil && ing.Backing.Mapped() {
		residency = "mapped"
	}
	log.Printf("bundle loaded: %d EKS concepts, %d instances, %s, resolver %s with %d tokens (decode+restore %s, freeze %s)",
		ing.Graph.Len(), ing.Store.Len(), residency, snap.resolverResidency(), len(snap.lookup.FlatData().Tokens),
		loadDur.Round(time.Millisecond), time.Since(freezeStart).Round(time.Millisecond))
	// Probe one flagged term end to end so a structurally valid bundle
	// that cannot actually answer fails here, not in production traffic.
	if terms := snap.Terms(1); len(terms) > 0 {
		if err := snap.RelaxBatch(context.Background(), []Request{{Term: terms[0], K: 1}})[0].Err; err != nil {
			return nil, fmt.Errorf("engine: bundle %q failed serving probe: %w", path, err)
		}
	}
	return snap, nil
}

// Relaxer exposes the assembled online phase for harnesses that drive it
// directly (golden pinning, benchmarks, the evaluation suite).
func (s *Snapshot) Relaxer() *core.Relaxer { return s.relaxer }

// AccelActive reports whether the ingestion's offline accelerations were
// attached to the serving relaxer (false also when the bundle simply does
// not carry them).
func (s *Snapshot) AccelActive() (materialized, indexed bool) {
	return s.matActive, s.idxActive
}

// NewRelaxer derives an alternative online phase over the same frozen
// ingestion — different mapper or options (e.g. dialogue repair wants
// IncludeSelf and the combined mapper) — keeping relaxer assembly inside
// the engine. A nil mapper reuses the snapshot's.
func (s *Snapshot) NewRelaxer(mapper match.Mapper, opts core.RelaxOptions) *core.Relaxer {
	if mapper == nil {
		mapper = s.cfg.Mapper
	}
	sim := core.NewSimilarity(s.ing.Graph, s.ing.Frequencies, s.ing.Ontology)
	return core.NewRelaxer(s.ing, sim, mapper, opts)
}

// Close releases the snapshot's backing resources — for an mmap-backed
// flat bundle, the file mapping, released deterministically instead of at
// GC time (replica restarts in the chaos harness must not depend on the
// collector running). The snapshot must be fully drained first: no
// in-flight Relax may touch a closed mapping. No-op for heap snapshots.
func (s *Snapshot) Close() error { return s.ing.Close() }

// Ingestion exposes the underlying frozen ingestion (read-only).
func (s *Snapshot) Ingestion() *core.Ingestion { return s.ing }

// Source reports where the snapshot was loaded from ("" if built in
// process).
func (s *Snapshot) Source() string { return s.cfg.Source }

// RelaxTraced spells RelaxBatch the way bench/ calls it.
func (s *Snapshot) RelaxTraced(ctx context.Context, term, qctx string, k int) ([]RelaxResult, core.ServePath, error) { // bench contract
	resp := s.RelaxBatch(ctx, []Request{{Term: term, Context: qctx, K: k}})[0]
	return resp.Results, resp.Path, resp.Err
}

// RelaxBatch is the snapshot's one relax method: it answers requests
// positionally — response i always answers request i, each with up to K
// ranked, name-resolved results — through core's shared-scratch batch path;
// one request is a batch of one. A request that fails
// (unknown term, malformed context) fails alone, in its own Err, and costs
// nothing below this layer when its context did not parse. The deadline in
// ctx bounds the whole batch. A multi-source snapshot fuses each request's
// per-source answers instead (federate.go); a single-source one serializes
// byte-identically to a snapshot that predates sources unless the request
// asks for Explain.
func (s *Snapshot) RelaxBatch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	creqs := make([]core.Request, len(reqs))
	for i, req := range reqs {
		qctx, err := core.ParseContext(req.Context)
		creqs[i] = core.Request{Term: req.Term, Ctx: qctx, K: req.K, Err: err}
	}
	if s.multiSource() {
		for i, creq := range creqs {
			out[i] = s.relaxFused(ctx, creq, reqs[i].Explain)
		}
		return out
	}
	cresps := s.relaxer.RelaxBatch(ctx, creqs)
	// Name resolution is the non-kernel half of an answer; a sampled request
	// gets a span for it so the kernel/resolve split is visible.
	sp := trace.FromContext(ctx).StartChild("engine.resolve")
	if sp != nil {
		sp.SetTag("items", strconv.Itoa(len(reqs)))
	}
	for i, cresp := range cresps {
		out[i] = Response{Path: cresp.Path, Decline: cresp.Decline, Err: cresp.Err}
		if cresp.Err != nil {
			continue
		}
		out[i].Results = s.resolve(cresp.Results)
		if reqs[i].Explain {
			s.attachExplain(reqs[i].Term, cresp.Results, out[i].Results)
		}
	}
	sp.End()
	return out
}

// resolve maps core results to surface names. A result carries all of its
// concept's instances, so their names are the snapshot's shared slice;
// callers must not mutate it.
func (s *Snapshot) resolve(results []core.Result) []RelaxResult {
	out := make([]RelaxResult, 0, len(results))
	for _, r := range results {
		concept, _ := s.ing.Graph.Concept(r.Concept)
		out = append(out, RelaxResult{Concept: concept.Name, Score: r.Score, Hops: r.Hops, Instances: s.names[r.Concept]})
	}
	return out
}

// NewConversation opens a relaxation-backed dialogue when the snapshot's
// builder provided one (bundles cannot: the synthetic world is absent).
func (s *Snapshot) NewConversation() (*dialog.Conversation, error) {
	if s.cfg.Conversation == nil {
		return nil, fmt.Errorf("engine: snapshot has no conversation factory (serving from a bundle?)")
	}
	return s.cfg.Conversation()
}

// Terms returns up to n query terms known to map to flagged concepts, in
// deterministic order — the realistic query mix load generators build on.
func (s *Snapshot) Terms(n int) []string {
	if n > len(s.terms) {
		n = len(s.terms)
	}
	return s.terms[:n:n]
}

// Stats describes the frozen world.
func (s *Snapshot) Stats() map[string]any {
	stats := map[string]any{
		"eksConcepts":     s.ing.Graph.Len(),
		"eksEdges":        s.ing.Graph.EdgeCount(),
		"shortcutsAdded":  s.ing.ShortcutsAdded,
		"kbInstances":     s.ing.Store.Len(),
		"flaggedConcepts": s.ing.FlaggedCount(),
		"contexts":        len(s.ing.Contexts),
	}
	// Residency: a flat bundle reports whether its columns live in a file
	// mapping or on the heap, and how many bytes the backing pins. Heap
	// worlds built in process have no backing and report "built".
	stats["snapshotResidency"] = s.residency()
	if b := s.ing.Backing; b != nil {
		stats["snapshotBytes"] = b.SizeBytes()
	}
	// The term resolver of the bundle mapper: adopted with the bundle's
	// columns (mapped, or heap for a streamed bundle) or built by New, and the
	// distinct tokens it indexes. Absent under a caller's own mapper.
	if s.lookup != nil {
		stats["resolver"] = s.resolverResidency()
		stats["resolverTokens"] = len(s.lookup.FlatData().Tokens)
	}
	live, mat, idx := s.relaxer.PathCounts()
	stats["relaxPaths"] = map[string]uint64{"live": live, "materialized": mat, "indexed": idx, "materializedTruncated": s.relaxer.TruncatedDeclines()}
	// Where the kernel's per-concept geometries came from for this snapshot —
	// a hit scored one the memo held, a fill walked the graph, a refill walked
	// again for a wider target, mapped scored a view of the candidate index's
	// columns, which the memo never holds — and the per-context IC planes the
	// scorer loads from.
	hits, fills, refills, mapped, evictions, bytes, planes, planeBytes := s.relaxer.GeometryCounts()
	stats["relaxGeometry"] = map[string]uint64{"hits": hits, "fills": fills, "refills": refills, "mapped": mapped, "evictions": evictions, "bytes": uint64(bytes),
		"planes": uint64(planes), "planeBytes": uint64(planeBytes)}
	// Multi-source snapshots report each mounted arm; single-source stats
	// keep the classic shape with no extra keys.
	if s.multiSource() {
		stats["sourceCount"] = len(s.arms)
		sources := make(map[string]any, len(s.arms))
		for i := range s.arms {
			arm := &s.arms[i]
			sources[arm.name] = map[string]any{
				"eksConcepts":     arm.ing.Graph.Len(),
				"eksEdges":        arm.ing.Graph.EdgeCount(),
				"shortcutsAdded":  arm.ing.ShortcutsAdded,
				"flaggedConcepts": arm.ing.FlaggedCount(),
			}
		}
		stats["sources"] = sources
	}
	if s.matActive {
		stats["materializedEntries"] = s.ing.Materialized.Entries()
		stats["materializedConcepts"] = s.ing.Materialized.Concepts()
	}
	if s.idxActive {
		stats["candidateIndexConcepts"] = s.ing.Candidates.Concepts()
		stats["candidateIndexPostings"] = s.ing.Candidates.Postings()
		stats["candidateIndexSkipped"] = s.ing.Candidates.Skipped()
	}
	if s.cfg.Source != "" {
		stats["source"] = s.cfg.Source
	}
	if s.cfg.ExtraStats != nil {
		for k, v := range s.cfg.ExtraStats() {
			stats[k] = v
		}
	}
	return stats
}
