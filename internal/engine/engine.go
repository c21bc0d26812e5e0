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
	"strings"
	"sync"
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
// An answer owns its strings: every name it carries, provenance included, is
// a heap copy and never a view into a mapped bundle, so it stays readable
// after its snapshot is closed or collected. Instances is shared by every
// answer that lists the concept; callers must not mutate it.
//
// Provenance holds the attribution extensions, nil on a plain answer, so a
// cached single-source result carries no header for them. JSON promotes its
// fields in place and leaves them out while it is nil, so classic
// single-source explain=false responses serialize byte-identically to
// earlier versions.
type RelaxResult struct {
	Concept   string   `json:"concept"`
	Score     float64  `json:"score"`
	Hops      int      `json:"hops"`
	Instances []string `json:"instances"`
	*Provenance
}

// Provenance is a result's attribution: Sources lists the named external
// knowledge sources that contributed it (multi-source snapshots always,
// single-source snapshots only under explain mode), and Explain carries the
// relaxation path when the request asked for it. Either is omitted when
// unset.
type Provenance struct {
	Sources []string `json:"sources,omitempty"`
	Explain *Explain `json:"explain,omitempty"`
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

// Config tunes Snapshot assembly. It names no term mapper: every snapshot
// resolves query terms through its ingestion's resolver, the paper's EDIT.
// The zero value serves a loaded bundle at the default relaxation radius.
type Config struct {
	// Relax configures the online phase; zero values pick the defaults of
	// core.RelaxOptions plus DynamicRadius (the serving shape).
	Relax core.RelaxOptions
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
	sim     *core.Similarity
	relaxer *core.Relaxer
	cfg     Config
	// name is the source name attribution and explanations carry:
	// core.PrimarySourceName, or the name a secondary source is mounted under.
	name string
	// terms is the precomputed term index: flagged-concept names in
	// deterministic (ID) order, the realistic query mix GET /terms serves.
	terms []string
	// names holds, per flagged concept of the ingestion, its name and the
	// surface names of its instances, copied once per generation. Every
	// answer that lists the concept shares them, so a cached answer costs its
	// result headers and nothing per instance.
	names map[eks.ConceptID]conceptNames
	// sources are the mounted sources in mount order when the ingestion
	// carries secondaries: sources[0] is the snapshot itself, then one
	// Snapshot per secondary, assembled by New over its own ingestion. A
	// single-source snapshot has none and serves through its relaxer alone;
	// with sources RelaxBatch fuses per-source answers (see federate.go).
	sources []*Snapshot
	// matActive / idxActive record whether the ingestion's offline
	// accelerations were attached to the relaxer (they are refused when
	// their build options cannot reproduce the serving configuration).
	matActive, idxActive bool
	// dialogue derives the generation's Dialogue once, on first use.
	dialogue func() (Dialogue, error)
}

// Dialogue is what a generation's /chat sessions and NLQ pipelines share.
type Dialogue struct {
	Classifier *dialog.IntentClassifier
	Extractor  *dialog.MentionExtractor
	Relaxer    *core.Relaxer // repair: the snapshot's options plus IncludeSelf
}

// dialogueSeed seeds every generation's classifier examples alike: 47 is the
// seed the default world has always trained with.
const dialogueSeed = 47

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
	ing.Graph.Freeze()
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	terms, names := flaggedNames(ing)
	s := &Snapshot{
		ing:     ing,
		sim:     sim,
		relaxer: core.NewRelaxer(ing, sim, ing.Resolver, cfg.Relax),
		cfg:     cfg,
		name:    core.PrimarySourceName,
		terms:   terms,
		names:   names,
	}
	s.dialogue = sync.OnceValues(s.deriveDialogue)
	// Mount the secondary sources, each a Snapshot of its own, always on the
	// live path (their worlds are small; the offline accelerations remain a
	// primary-only optimization). Their
	// flagged names follow the primary's in the term index, in mount order
	// and without a name an earlier source lists, so load generators
	// exercise terms only a secondary can answer.
	if len(ing.Sources) > 0 {
		s.sources = []*Snapshot{s}
		seen := make(map[string]bool, len(s.terms))
		for _, t := range s.terms {
			seen[t] = true
		}
		for _, src := range ing.Sources {
			sub := New(src.Ing, Config{Relax: cfg.Relax})
			sub.name = strings.Clone(src.Name)
			s.sources = append(s.sources, sub)
			for _, t := range sub.terms {
				if !seen[t] {
					seen[t] = true
					s.terms = append(s.terms, t)
				}
			}
		}
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

// residency says where the snapshot's columns live: a flat bundle's in a file
// mapping ("mapped") or in one heap buffer ("heap"); a world built in process
// has no backing and reports "built".
func (s *Snapshot) residency() string {
	switch b := s.ing.Backing; {
	case b == nil:
		return "built"
	case b.Mapped():
		return "mapped"
	}
	return "heap"
}

// conceptNames is a flagged concept's name and its instances' surface names
// in InstancesForConcept order, heap copies of the ingestion's strings.
type conceptNames struct {
	name      string
	instances []string
}

// flaggedNames copies the flagged concepts' names once, in ID order
// (FlaggedIDs is ascending): the deterministic term index Terms slices from,
// and per concept what resolve hands out. NewFlatIngestion checked that every
// flagged concept is in the graph and every mapped instance in the store.
func flaggedNames(ing *core.Ingestion) ([]string, map[eks.ConceptID]conceptNames) {
	ids := ing.FlaggedIDs()
	terms := make([]string, 0, len(ids))
	names := make(map[eks.ConceptID]conceptNames, len(ids))
	for _, id := range ids {
		name, _ := ing.Graph.Name(id)
		instances := ing.InstancesForConcept(id)
		cn := conceptNames{name: strings.Clone(name), instances: make([]string, len(instances))}
		for j, iid := range instances {
			inst, _ := ing.Store.Instance(iid)
			cn.instances[j] = strings.Clone(inst.Name)
		}
		terms = append(terms, cn.name)
		names[id] = cn
	}
	return terms, names
}

// LoadSnapshot builds a Snapshot from a persisted ingestion bundle: no
// world regeneration, no embedding training. This is the one cold-start
// path — kbserver startup, hot reload, the chaos harness, and the CLI all
// come through here, fault sites and CRC checks included; /chat derives
// nothing here (see Dialogue). Errors keep persist's typing: a corrupt file
// wraps persist.ErrCorruptBundle, a missing one fs.ErrNotExist.
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
	log.Printf("bundle loaded: %d EKS concepts, %d instances, %s (decode+restore %s, freeze %s)",
		ing.Graph.Len(), ing.Store.Len(), snap.residency(),
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

// Mapper is the snapshot's query-term mapper, for harnesses that score where
// it places terms.
func (s *Snapshot) Mapper() match.Mapper { return s.ing.Resolver }

// Close releases the snapshot's backing resources — for an mmap-backed
// flat bundle, the file mapping, released deterministically instead of at
// GC time (replica restarts in the chaos harness must not depend on the
// collector running). The snapshot must be fully drained first: no
// in-flight Relax may touch a closed mapping. No-op for heap snapshots.
func (s *Snapshot) Close() error { return s.ing.Close() }

// Ingestion exposes the underlying frozen ingestion (read-only).
func (s *Snapshot) Ingestion() *core.Ingestion { return s.ing }

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
	if s.sources != nil {
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

// resolve maps core results, every one a flagged concept, to the snapshot's
// copies of their names. A result carries all of its concept's instances, so
// their names are the snapshot's shared slice; callers must not mutate it.
func (s *Snapshot) resolve(results []core.Result) []RelaxResult {
	out := make([]RelaxResult, 0, len(results))
	for _, r := range results {
		cn := s.names[r.Concept]
		out = append(out, RelaxResult{Concept: cn.name, Score: r.Score, Hops: r.Hops, Instances: cn.instances})
	}
	return out
}

// Dialogue returns the generation's dialogue, derived on first use from the
// ingestion alone (the classifier from the ontology and store, the paper's
// Section 4; the extractor from the store and EKS names; a repair relaxer with
// its own similarity memo), so a world, its bundle and each reload agree.
func (s *Snapshot) Dialogue() (Dialogue, error) { return s.dialogue() }

func (s *Snapshot) deriveDialogue() (Dialogue, error) {
	opts := s.relaxer.Options()
	opts.IncludeSelf = true
	classifier, err := dialog.TrainIntentClassifier(dialog.GenerateTrainingExamples(s.ing.Ontology, s.ing.Store, dialogueSeed, 0))
	sim := core.NewSimilarity(s.ing.Graph, s.ing.Frequencies, s.ing.Ontology)
	return Dialogue{classifier, dialog.NewMentionExtractor(s.ing.Store, s.ing.Graph.FlatData().NameKeys), core.NewRelaxer(s.ing, sim, s.ing.Resolver, opts)}, err
}

// NewConversation opens a relaxation-backed dialogue over the Dialogue. The
// session holds the generation's ingestion past the serving layer's release
// of the turn that opened it; only the finalizer keeps a mapped bundle valid
// meanwhile, so a refcount that unmaps generations must count sessions.
func (s *Snapshot) NewConversation() (*dialog.Conversation, error) {
	d, err := s.dialogue()
	if err != nil {
		return nil, err
	}
	return dialog.NewConversation(s.ing, d.Classifier, d.Extractor, d.Relaxer), nil
}

// Terms returns up to n query terms known to map to flagged concepts, in
// deterministic order — the realistic query mix load generators build on.
func (s *Snapshot) Terms(n int) []string {
	n = min(n, len(s.terms))
	return s.terms[:n:n]
}

// Stats describes the frozen world.
func (s *Snapshot) Stats() map[string]any {
	stats := sourceStats(s.ing)
	stats["kbInstances"] = s.ing.Store.Len()
	stats["contexts"] = len(s.ing.Contexts)
	// Residency: a flat bundle reports whether its columns live in a file
	// mapping or on the heap, and how many bytes the backing pins. Heap
	// worlds built in process have no backing and report "built".
	stats["snapshotResidency"] = s.residency()
	if b := s.ing.Backing; b != nil {
		stats["snapshotBytes"] = b.SizeBytes()
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
	// Multi-source snapshots report each mounted source; single-source stats
	// keep the classic shape with no extra keys.
	if s.sources != nil {
		stats["sourceCount"] = len(s.sources)
		sources := make(map[string]any, len(s.sources))
		for _, src := range s.sources {
			sources[src.name] = sourceStats(src.ing)
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
	return stats
}

// sourceStats is what Stats reports of each source's customized graph.
func sourceStats(ing *core.Ingestion) map[string]any {
	return map[string]any{
		"eksConcepts":     ing.Graph.Len(),
		"eksEdges":        ing.Graph.EdgeCount(),
		"shortcutsAdded":  ing.ShortcutsAdded,
		"flaggedConcepts": ing.FlaggedCount(),
	}
}
