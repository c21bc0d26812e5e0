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
	"context"
	"fmt"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/embedding"
	"medrelax/internal/engine"
	"medrelax/internal/eval"
	"medrelax/internal/kb"
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
	// MED configures the synthetic knowledge base.
	MED medkb.Config
	// Corpus configures monograph generation.
	Corpus medkb.CorpusConfig
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
	Mappers       map[string]match.Mapper
	Mapper        match.Mapper
	Ingestion     *core.Ingestion
	Engine        *engine.Snapshot
	Relaxer       *core.Relaxer
	Methods       []core.Method
	Oracle        *eval.Oracle
	Timings       BuildTimings
}

// Build generates the synthetic world and runs the offline phase.
func Build(cfg Config) (*System, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.MapperName == "" {
		cfg.MapperName = "EMBEDDING"
	}
	if cfg.EKS.Seed == 0 {
		cfg.EKS.Seed = cfg.Seed
	}
	if cfg.MED.Seed == 0 {
		cfg.MED.Seed = cfg.Seed + 1
	}
	if cfg.Corpus.Seed == 0 {
		cfg.Corpus.Seed = cfg.Seed + 2
	}
	if cfg.Embedding.Seed == 0 {
		cfg.Embedding.Seed = cfg.Seed + 3
	}

	var timings BuildTimings
	start := time.Now()
	world, err := synthkb.Generate(cfg.EKS)
	if err != nil {
		return nil, fmt.Errorf("medrelax: generating external knowledge source: %w", err)
	}
	med, err := medkb.Generate(world, cfg.MED)
	if err != nil {
		return nil, fmt.Errorf("medrelax: generating MED: %w", err)
	}
	corp := medkb.BuildCorpus(world, med, cfg.Corpus)
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
	var refs [][]string
	for _, key := range world.Graph.NameKeys() {
		refs = append(refs, stringutil.Tokenize(key))
	}
	medEnc := embedding.NewSIFEncoder(medModel, 0, refs)
	genEnc := embedding.NewSIFEncoder(genModel, 0, refs)

	mappers := map[string]match.Mapper{
		"EXACT":     match.NewExact(world.Graph),
		"EDIT":      match.NewEdit(world.Graph, 0),
		"EMBEDDING": match.NewEmbedding(world.Graph, medEnc, 0),
	}
	mapper, ok := mappers[cfg.MapperName]
	if !ok {
		return nil, fmt.Errorf("medrelax: unknown mapper %q (want EXACT, EDIT or EMBEDDING)", cfg.MapperName)
	}
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
	if cfg.SecondSource {
		vg, err := synthkb.GenerateVariant(world)
		if err != nil {
			return nil, fmt.Errorf("medrelax: generating variant vocabulary: %w", err)
		}
		// The variant source maps by surface form only (exact, then edit
		// distance) — no embeddings: its whole point is to exactly know the
		// names the primary does not. Its ingestion runs over the same KB
		// store, ontology and corpus, so its frequency table speaks the
		// same contexts. Accelerations stay primary-only.
		vmapper := match.NewCombined(match.NewExact(vg), match.NewEdit(vg, 0))
		vopts := core.IngestOptions{Frequency: cfg.Ingest.Frequency, Parallelism: cfg.Ingest.Parallelism}
		ving, err := core.Ingest(med.Ontology, med.Store, vg, corp, vmapper, vopts)
		if err != nil {
			return nil, fmt.Errorf("medrelax: ingesting variant vocabulary: %w", err)
		}
		ing.Sources = []core.NamedSource{{Name: "variant", Ing: ving}}
	}
	timings.Ingest = time.Since(ingestStart)
	timings.Total = time.Since(start)

	// The servable assembly (freeze, similarity, relaxer, term index)
	// happens in exactly one place: engine.New. The conversation factory
	// and world stats close over sys, assigned below before any caller can
	// invoke them.
	var sys *System
	snap := engine.New(ing, engine.Config{
		Relax:  cfg.Relax,
		Mapper: mapper,
		Conversation: func() (*dialog.Conversation, error) {
			return sys.NewConversation(true)
		},
		ExtraStats: func() map[string]any {
			return map[string]any{
				"corpusTokens":     sys.Corpus.TokenCount(),
				"embeddingVocab":   sys.MedModel.VocabSize(),
				"ontologyConcepts": sys.Med.Ontology.ConceptCount(),
			}
		},
	})

	methods := []core.Method{
		core.NewQR(ing, mapper, cfg.Relax),
		core.NewQRNoContext(ing, mapper, cfg.Relax),
		core.NewQRNoCorpus(ing, mapper, cfg.Relax),
		core.NewICBaseline(ing, mapper, cfg.Relax),
		core.NewEmbeddingMethod("Embedding-pre-trained", ing, genEnc),
		core.NewEmbeddingMethod("Embedding-trained", ing, medEnc),
	}

	sys = &System{
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
		Engine:        snap,
		Relaxer:       snap.Relaxer(),
		Methods:       methods,
		Oracle:        eval.NewOracle(world, med),
		Timings:       timings,
	}
	return sys, nil
}

// Result is one relaxed answer resolved to surface names.
type Result struct {
	ConceptID   eks.ConceptID
	ConceptName string
	Score       float64
	Hops        int
	Instances   []InstanceRef
}

// InstanceRef names a KB instance in a result.
type InstanceRef struct {
	ID   kb.InstanceID
	Name string
}

// Relax answers a [query term, context] pair with up to k ranked relaxed
// results, resolving concepts and instances to names. ctx may be "" for
// context-free relaxation; otherwise it is a Domain-Relationship-Range
// string such as ContextIndication.
func (s *System) Relax(term, ctx string, k int) ([]Result, error) {
	return s.RelaxContext(context.Background(), term, ctx, k)
}

// RelaxContext is Relax under request-scoped cancellation: the serving
// layer threads HTTP deadlines through here. Context-string parse
// failures wrap core.ErrBadContext so servers can map them to 400.
func (s *System) RelaxContext(cctx context.Context, term, ctx string, k int) ([]Result, error) {
	qctx, err := core.ParseContext(ctx)
	resp := s.Relaxer.Relax(cctx, core.Request{Term: term, Ctx: qctx, K: k, Err: err})
	if resp.Err != nil {
		return nil, resp.Err
	}
	out := make([]Result, 0, len(resp.Results))
	for _, r := range resp.Results {
		concept, _ := s.World.Graph.Concept(r.Concept)
		res := Result{ConceptID: r.Concept, ConceptName: concept.Name, Score: r.Score, Hops: r.Hops}
		for _, iid := range r.Instances {
			inst, _ := s.Med.Store.Instance(iid)
			res.Instances = append(res.Instances, InstanceRef{ID: iid, Name: inst.Name})
		}
		out = append(out, res)
	}
	return out, nil
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

// NewConversation builds a dialogue over the system's KB. withQR toggles
// query relaxation — the two arms of the paper's user study.
func (s *System) NewConversation(withQR bool) (*dialog.Conversation, error) {
	examples := dialog.GenerateTrainingExamples(s.Med.Ontology, s.Med.Store, s.Config.Seed+5, 0)
	classifier, err := dialog.TrainIntentClassifier(examples)
	if err != nil {
		return nil, fmt.Errorf("medrelax: training intent classifier: %w", err)
	}
	extractor := dialog.NewMentionExtractor(s.Med.Store, s.World.Graph.NameKeys())
	if !withQR {
		return dialog.NewConversation(s.Med.Store, s.Med.Ontology, classifier, extractor, nil, nil), nil
	}
	// The online phase resolves colloquial terms by exact match, then edit
	// distance, then embeddings (Section 3), and repair includes the mapped
	// concept itself when the KB knows it.
	combined := match.NewCombined(s.Mappers["EXACT"], s.Mappers["EDIT"], s.Mappers["EMBEDDING"])
	opts := s.Config.Relax
	opts.IncludeSelf = true
	relaxer := s.Engine.NewRelaxer(combined, opts)
	return dialog.NewConversation(s.Med.Store, s.Med.Ontology, classifier, extractor, relaxer, s.Ingestion), nil
}

// NewNLQSystem builds the Section 6.2 natural language query pipeline over
// the system's KB; withQR toggles relaxation-backed evidence generation.
func (s *System) NewNLQSystem(withQR bool) *nlq.System {
	if !withQR {
		return nlq.NewSystem(s.Med.Ontology, s.Med.Store, nil, nil)
	}
	combined := match.NewCombined(s.Mappers["EXACT"], s.Mappers["EDIT"], s.Mappers["EMBEDDING"])
	opts := s.Config.Relax
	opts.IncludeSelf = true
	relaxer := s.Engine.NewRelaxer(combined, opts)
	return nlq.NewSystem(s.Med.Ontology, s.Med.Store, relaxer, s.Ingestion)
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
