// Package medrelax is the public face of a from-scratch reproduction of
// "Expanding Query Answers on Medical Knowledge Bases" (EDBT 2020): a
// domain-specific query relaxation system that customizes an external
// medical knowledge source (a synthetic SNOMED-CT-like DAG) to a medical
// knowledge base and answers [query term, context] lookups with
// semantically related KB instances.
//
// The package wires the substrates under internal/ into one reproducible
// System: the synthetic world (external knowledge source, MED knowledge
// base, monograph corpus), embedding models, the three mapping methods, the
// offline ingestion of Algorithm 1, the online relaxer of Algorithm 2, the
// six methods compared in the paper's Table 2, and the evaluation oracle.
//
// Quick start:
//
//	sys, err := medrelax.Build(medrelax.DefaultConfig())
//	results, err := sys.Relax("pyelectasia", medrelax.ContextIndication, 10)
package medrelax

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/embedding"
	"medrelax/internal/engine"
	"medrelax/internal/eval"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/nlq"
	"medrelax/internal/stringutil"
	"medrelax/internal/synthkb"
)

// Re-exported context constants for the two finding contexts of the
// paper's Figure 1.
const (
	ContextIndication = medkb.CtxIndicationFinding
	ContextRisk       = medkb.CtxRiskFinding
)

// Config assembles the knobs of every stage. Zero values select defaults
// tuned to the paper's scale.
type Config struct {
	// Seed seeds every stage (each stage derives its own stream).
	Seed int64
	// EKS configures the synthetic external knowledge source.
	EKS synthkb.Config
	// Embedding configures both embedding models.
	Embedding embedding.Config
	// Ingest configures the offline phase.
	Ingest core.IngestOptions
	// Relax configures the online phase.
	Relax core.RelaxOptions
	// MapperName selects the ingestion mapper: EXACT, EDIT or EMBEDDING.
	// The paper uses word embeddings after Table 1; default EMBEDDING.
	MapperName string
	// SecondSource mounts a second external knowledge source next to the
	// primary: the variant vocabulary derived from the world's latent
	// surface forms (synthkb.GenerateVariant), ingested over the same KB
	// and fused at serving time under the name "variant". Its coverage
	// deliberately complements the primary's — it resolves paraphrase
	// query terms the primary's mappers cannot place.
	SecondSource bool
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{
		Seed:       42,
		MapperName: "EMBEDDING",
		Relax:      core.RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6},
	}
}

// BuildTimings breaks down where Build spent its wall-clock time, so the
// CLI and server can report the offline-phase cost (and the speedup of
// loading a persisted bundle instead).
type BuildTimings struct {
	// WorldGen covers synthetic EKS + MED + corpus generation.
	WorldGen time.Duration
	// Embeddings covers training both embedding models and the encoders.
	Embeddings time.Duration
	// Ingest covers Algorithm 1 (mapping, frequencies, customization),
	// including the dense-index freeze.
	Ingest time.Duration
	// Total is the whole Build call.
	Total time.Duration
}

// System is a fully built reproduction environment. The servable part —
// frozen ingestion, relaxer, term index — lives in Engine, the one
// immutable snapshot every serving layer consumes; System adds the
// synthetic world, embedding models, and evaluation harness around it.
type System struct {
	Config        Config
	World         *synthkb.World
	Med           *medkb.MED
	Corpus        *corpus.Corpus
	GeneralCorpus *corpus.Corpus
	MedModel      *embedding.Model
	GeneralModel  *embedding.Model
	MedEncoder    *embedding.SIFEncoder
	GenEncoder    *embedding.SIFEncoder
	Mappers       map[string]match.Mapper // Table 1's three, at ingestion only
	Mapper        match.Mapper            // ingestion's and Table 2's; Engine serves its own
	Ingestion     *core.Ingestion
	Engine        *engine.Snapshot
	Methods       []core.Method
	Oracle        *eval.Oracle
	Timings       BuildTimings
}

// Build generates the synthetic world and runs the offline phase.
func Build(cfg Config) (*System, error) {
	cfg.Seed = cmp.Or(cfg.Seed, 42)
	cfg.MapperName = cmp.Or(cfg.MapperName, "EMBEDDING")
	mapperNames := []string{"EXACT", "EDIT", "EMBEDDING"} // Table 1's order
	if !slices.Contains(mapperNames, cfg.MapperName) {
		last := len(mapperNames) - 1
		return nil, fmt.Errorf("medrelax: unknown mapper %q (want %s or %s)",
			cfg.MapperName, strings.Join(mapperNames[:last], ", "), mapperNames[last])
	}
	cfg.Embedding.Seed = cmp.Or(cfg.Embedding.Seed, cfg.Seed+3)

	var timings BuildTimings
	start := time.Now()
	world, med, corp, err := medkb.GenerateWorld(cfg.Seed, cfg.EKS, medkb.Config{})
	if err != nil {
		return nil, fmt.Errorf("medrelax: %w", err)
	}
	general := medkb.BuildPretrainCorpus(world, cfg.Seed+4, 0)
	timings.WorldGen = time.Since(start)

	embedStart := time.Now()
	medModel, err := embedding.Train(corp.TokenStreams(), cfg.Embedding)
	if err != nil {
		return nil, fmt.Errorf("medrelax: training corpus embeddings: %w", err)
	}
	genCfg := cfg.Embedding
	genCfg.Seed = cfg.Embedding.Seed + 1
	genModel, err := embedding.Train(general.TokenStreams(), genCfg)
	if err != nil {
		return nil, fmt.Errorf("medrelax: training general embeddings: %w", err)
	}

	// SIF reference set: every name key of the external knowledge source.
	keys := world.Graph.FlatData().NameKeys
	refs := make([][]string, keys.Len())
	for i := range refs {
		refs[i] = stringutil.Tokenize(keys.At(i))
	}
	medEnc := embedding.NewSIFEncoder(medModel, 0, refs)
	genEnc := embedding.NewSIFEncoder(genModel, 0, refs)

	mappers := make(map[string]match.Mapper, len(mapperNames))
	for i, m := range []match.Mapper{match.NewExact(world.Graph), match.NewEdit(world.Graph, 0), match.NewEmbedding(world.Graph, medEnc, 0)} {
		mappers[mapperNames[i]] = m
	}
	mapper := mappers[cfg.MapperName]
	timings.Embeddings = time.Since(embedStart)

	// An enabled materialization with no explicit relaxation options
	// inherits the serving options: the stored top-k answers are only
	// servable when they were computed under the exact options the online
	// relaxer runs with, so defaulting to anything else would build a
	// store the engine refuses to attach.
	if cfg.Ingest.Materialize.Enabled && cfg.Ingest.Materialize.Relax == (core.RelaxOptions{}) {
		cfg.Ingest.Materialize.Relax = cfg.Relax
	}

	ingestStart := time.Now()
	ing, err := core.Ingest(med.Ontology, med.Store, world.Graph, corp, mapper, cfg.Ingest)
	if err != nil {
		return nil, fmt.Errorf("medrelax: ingestion: %w", err)
	}
	timings.Ingest = time.Since(ingestStart)
	timings.Total = time.Since(start)

	sys := &System{
		Config:        cfg,
		World:         world,
		Med:           med,
		Corpus:        corp,
		GeneralCorpus: general,
		MedModel:      medModel,
		GeneralModel:  genModel,
		MedEncoder:    medEnc,
		GenEncoder:    genEnc,
		Mappers:       mappers,
		Mapper:        mapper,
		Ingestion:     ing,
		Oracle:        eval.NewOracle(world, med),
		Timings:       timings,
	}
	if cfg.SecondSource {
		return sys.withSecondSource()
	}
	sys.assemble()
	return sys, nil
}

// withSecondSource returns a copy of s whose ingestion is a shallow copy of
// s's with the variant vocabulary mounted as the source "variant",
// assembled as Build assembles it. s is left as it was.
func (s *System) withSecondSource() (*System, error) {
	start := time.Now()
	vg, err := synthkb.GenerateVariant(s.World)
	if err != nil {
		return nil, fmt.Errorf("medrelax: generating variant vocabulary: %w", err)
	}
	// The variant source maps by surface form only (edit distance, which
	// tries the exact key first) — no embeddings: its whole point is to exactly know the
	// names the primary does not. Its ingestion runs over the same KB
	// store, ontology and corpus, so its frequency table speaks the same
	// contexts. Accelerations stay primary-only.
	vmapper := match.NewEdit(vg, 0)
	ving, err := core.Ingest(s.Med.Ontology, s.Med.Store, vg, s.Corpus, vmapper, core.IngestOptions{Frequency: s.Config.Ingest.Frequency})
	if err != nil {
		return nil, fmt.Errorf("medrelax: ingesting variant vocabulary: %w", err)
	}
	ing := *s.Ingestion
	ing.Sources = []core.NamedSource{{Name: "variant", Ing: ving}}
	out := *s
	out.Config.SecondSource = true
	out.Ingestion = &ing
	out.Timings.Ingest += time.Since(start)
	out.Timings.Total += time.Since(start)
	out.assemble()
	return &out, nil
}

// assemble derives what s serves from its ingestion: the snapshot (engine.New
// is the one place freeze, similarity, relaxer, term index and dialogue are
// assembled) and Table 2's six methods.
func (s *System) assemble() {
	ing, mapper, opts := s.Ingestion, s.Mapper, s.Config.Relax
	s.Engine = engine.New(ing, engine.Config{Relax: opts})
	s.Methods = []core.Method{
		core.NewQR(ing, mapper, opts),
		core.NewQRNoContext(ing, mapper, opts),
		core.NewQRNoCorpus(ing, mapper, opts),
		core.NewICBaseline(ing, mapper, opts),
		core.NewEmbeddingMethod("Embedding-pre-trained", ing, s.GenEncoder),
		core.NewEmbeddingMethod("Embedding-trained", ing, s.MedEncoder),
	}
}

// Result is one relaxed answer with its concept and instances resolved to
// names, and on a multi-source system the sources that contributed it.
type Result = engine.RelaxResult

// Relax answers a [query term, context] pair with up to k ranked relaxed
// results through the system's snapshot, as every serving path does. ctx may
// be "" for context-free relaxation; otherwise it is a
// Domain-Relationship-Range string such as ContextIndication. A malformed
// context wraps core.ErrBadContext, an unmappable term core.ErrUnknownTerm.
func (s *System) Relax(term, ctx string, k int) ([]Result, error) {
	resp := s.Engine.RelaxBatch(context.Background(), []engine.Request{{Term: term, Context: ctx, K: k}})[0]
	return resp.Results, resp.Err
}

// Table1 runs the mapping-accuracy experiment over the three mapping
// methods, reproducing the paper's Table 1.
func (s *System) Table1() []eval.MapperScore {
	mappers := []match.Mapper{s.Mappers["EXACT"], s.Mappers["EDIT"], s.Mappers["EMBEDDING"]}
	return eval.EvaluateMappers(s.Med, mappers)
}

// FlaggedSet returns the FEC set — the external concepts the KB holds data
// for — as a fresh set, the form the evaluation harness and the DOT export
// take.
func (s *System) FlaggedSet() map[eks.ConceptID]bool {
	ids := s.Ingestion.FlaggedIDs()
	set := make(map[eks.ConceptID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// Table2 runs the overall-effectiveness experiment over all six methods
// with numQueries queries and top-k judgment, reproducing the paper's
// Table 2 (which uses 100 queries and k=10).
func (s *System) Table2(numQueries, k int) []eval.MethodScore {
	queries := eval.SelectQueries(s.Med, s.Oracle, numQueries)
	return eval.EvaluateMethods(s.Methods, queries, s.Oracle, s.FlaggedSet(), k)
}

// NewConversation builds a dialogue over the system's KB from its snapshot's
// Dialogue, as /chat does. withQR toggles query relaxation — the two arms of
// the paper's user study.
func (s *System) NewConversation(withQR bool) (*dialog.Conversation, error) {
	if withQR {
		return s.Engine.NewConversation()
	}
	d, err := s.Engine.Dialogue()
	if err != nil {
		return nil, err
	}
	return dialog.NewConversation(s.Ingestion, d.Classifier, d.Extractor, nil), nil
}

// NewNLQSystem builds the Section 6.2 natural language query pipeline over
// the system's KB; withQR toggles relaxation-backed evidence generation by
// the snapshot's dialogue relaxer.
func (s *System) NewNLQSystem(withQR bool) *nlq.System {
	if !withQR {
		return nlq.NewSystem(s.Med.Ontology, s.Med.Store, nil, nil)
	}
	d, _ := s.Engine.Dialogue() // the relaxer is derived even if the classifier fails
	return nlq.NewSystem(s.Med.Ontology, s.Med.Store, d.Relaxer, s.Ingestion)
}

// NLQExperiment runs the query-answerability comparison on the NLQ
// pipeline with and without relaxation — quantifying the paper's title
// claim on the Section 6.2 integration.
func (s *System) NLQExperiment(cfg eval.NLQConfig) eval.NLQResult {
	if cfg.Seed == 0 {
		cfg.Seed = s.Config.Seed + 7
	}
	return eval.RunNLQExperiment(s.Oracle, s.FlaggedSet(), s.NewNLQSystem(true), s.NewNLQSystem(false), cfg)
}

// Table3 runs the simulated user study, reproducing the paper's Table 3.
func (s *System) Table3(cfg eval.StudyConfig) (eval.StudyResult, error) {
	withQR, err := s.NewConversation(true)
	if err != nil {
		return eval.StudyResult{}, err
	}
	withoutQR, err := s.NewConversation(false)
	if err != nil {
		return eval.StudyResult{}, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.Config.Seed + 6
	}
	env := eval.StudyEnvironment{
		WithQR:    withQR,
		WithoutQR: withoutQR,
		Oracle:    s.Oracle,
		Flagged:   s.FlaggedSet(),
	}
	return eval.RunUserStudy(env, cfg), nil
}
