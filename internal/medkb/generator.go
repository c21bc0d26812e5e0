package medkb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
	"medrelax/internal/synthkb"
)

// VariationClass labels how a finding instance's surface name relates to
// its gold external concept. The classes drive the Table 1 experiment.
type VariationClass int

// Variation classes.
const (
	// ClassExact: the instance name is the concept's preferred name or a
	// registered synonym; exact matching suffices.
	ClassExact VariationClass = iota
	// ClassTypo: the name carries 1–2 character edits; approximate string
	// matching (τ=2) suffices.
	ClassTypo
	// ClassParaphrase: the name is a latent surface variant (lexical
	// substitution); only embedding matching can recover it.
	ClassParaphrase
	// ClassNovel: the name is phrased so differently that no mapper is
	// expected to recover it; it bounds recall for every method.
	ClassNovel
)

// String renders the class for reports.
func (c VariationClass) String() string {
	switch c {
	case ClassExact:
		return "exact"
	case ClassTypo:
		return "typo"
	case ClassParaphrase:
		return "paraphrase"
	case ClassNovel:
		return "novel"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Config controls MED generation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Drugs is the number of drug monograph entries. Default 220.
	Drugs int
}

const (
	// findingCoverage is the fraction of the world's finding concepts that
	// get a KB instance.
	findingCoverage float64 = 0.55
	// Variation class probabilities, the remainder going to ClassExact.
	// They reproduce the Table 1 bands (=> exact 0.83).
	typoProb       float64 = 0.05
	paraphraseProb float64 = 0.09
	novelProb      float64 = 0.03
	// indicationsPerDrug and risksPerDrug bound the per-drug finding links.
	indicationsPerDrug = 5
	risksPerDrug       = 4
	// treatedShare and causedShare are the target fractions of covered
	// findings that end up with indication/risk data: after the per-drug
	// sampling, findings still lacking data are attached to random drugs
	// until the shares are met. The gap between these shares and 1.0 is
	// what context-aware ranking exploits: a relaxation into a finding no
	// drug treats cannot answer a treatment query.
	treatedShare float64 = 0.75
	causedShare  float64 = 0.75
)

func (c Config) withDefaults() Config {
	if c.Drugs <= 0 {
		c.Drugs = 220
	}
	return c
}

// MED is the generated knowledge base with its ground truth.
type MED struct {
	Ontology *ontology.Ontology
	Store    *kb.Store
	// Gold maps each finding instance to the external concept it truly
	// denotes — the generator's ground truth for Table 1.
	Gold map[kb.InstanceID]eks.ConceptID
	// Class is the variation class of each finding instance's name.
	Class map[kb.InstanceID]VariationClass
	// FindingInstance maps a covered external concept to its KB finding
	// instance.
	FindingInstance map[eks.ConceptID]kb.InstanceID
	// Treated marks external concepts with indication data (some drug
	// treats them); Caused marks those with risk data.
	Treated map[eks.ConceptID]bool
	Caused  map[eks.ConceptID]bool
	// Popularity is the Zipf weight of each covered concept, shared by the
	// drug-link sampler and the corpus generator so that corpus frequency
	// correlates with how much the KB knows about a finding.
	Popularity map[eks.ConceptID]float64
	// DrugNames lists generated drug instance names in ID order.
	DrugNames []string
}

// GenerateWorld generates a whole synthetic world from one seed: the
// external knowledge source, the MED over it, and its monograph corpus. A
// stage config whose Seed is zero gets seed and seed+1 respectively (an
// explicit stage seed wins); the corpus is seeded seed+2. Every call returns
// fresh values: ingestion customizes the world's graph in place, so two
// ingestions need two calls.
func GenerateWorld(seed int64, source synthkb.Config, cfg Config) (*synthkb.World, *MED, *corpus.Corpus, error) {
	source.Seed = cmp.Or(source.Seed, seed)
	cfg.Seed = cmp.Or(cfg.Seed, seed+1)
	world, err := synthkb.Generate(source)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("medkb: generating external knowledge source: %w", err)
	}
	med, err := Generate(world, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("medkb: generating MED: %w", err)
	}
	return world, med, BuildCorpus(world, med, CorpusConfig{Seed: seed + 2}), nil
}

// Generate builds a MED over a synthkb world.
func Generate(world *synthkb.World, cfg Config) (*MED, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	onto, err := BuildOntology()
	if err != nil {
		return nil, err
	}
	store := kb.NewStore(onto)
	med := &MED{
		Ontology:        onto,
		Store:           store,
		Gold:            map[kb.InstanceID]eks.ConceptID{},
		Class:           map[kb.InstanceID]VariationClass{},
		FindingInstance: map[eks.ConceptID]kb.InstanceID{},
		Treated:         map[eks.ConceptID]bool{},
		Caused:          map[eks.ConceptID]bool{},
		Popularity:      map[eks.ConceptID]float64{},
	}

	// 1. Choose covered findings and assign Zipf popularity.
	covered := sampleFindings(rng, world.Findings, findingCoverage)
	for rank, id := range covered {
		med.Popularity[id] = 1 / math.Pow(float64(rank+1), 0.7)
	}

	nextID := kb.InstanceID(1)
	newInstance := func(concept, name string) (kb.InstanceID, error) {
		id := nextID
		nextID++
		if err := store.AddInstance(kb.Instance{ID: id, Concept: concept, Name: name}); err != nil {
			return 0, err
		}
		return id, nil
	}

	// 2. Finding instances with variation-classed names.
	for _, cid := range covered {
		concept, _ := world.Graph.Concept(cid)
		name, class := varyName(rng, world, cid, concept)
		iid, err := newInstance(ConceptFinding, name)
		if err != nil {
			return nil, err
		}
		med.Gold[iid] = cid
		med.Class[iid] = class
		med.FindingInstance[cid] = iid
	}

	// 3. Drugs with indications and risks. Each drug specializes in one or
	// two body systems, which keeps its findings clinically coherent.
	popList := make([]eks.ConceptID, len(covered))
	copy(popList, covered)
	var drugIDs []kb.InstanceID // ascending, parallel to med.DrugNames
	for d := 0; d < cfg.Drugs; d++ {
		drugName := drugName(rng, d)
		med.DrugNames = append(med.DrugNames, drugName)
		drugID, err := newInstance(ConceptDrug, drugName)
		if err != nil {
			return nil, err
		}
		drugIDs = append(drugIDs, drugID)
		systems := pickSystems(rng, world, covered)
		indications := samplePopular(rng, popList, med.Popularity, indicationsPerDrug, func(id eks.ConceptID) bool {
			return systems[world.Attrs[id].System]
		})
		for _, find := range indications {
			indID, err := newInstance(ConceptIndication, drugName+" indication: "+nameOf(world, find))
			if err != nil {
				return nil, err
			}
			if err := store.AddAssertion(kb.Assertion{Subject: drugID, Relationship: "treat", Object: indID}); err != nil {
				return nil, err
			}
			if err := store.AddAssertion(kb.Assertion{Subject: indID, Relationship: "hasFinding", Object: med.FindingInstance[find]}); err != nil {
				return nil, err
			}
			med.Treated[find] = true
		}
		risks := samplePopular(rng, popList, med.Popularity, risksPerDrug, func(id eks.ConceptID) bool {
			// Adverse effects cluster by the drug's systems too; keeping the
			// monograph anatomically coherent is also what real compendia
			// look like.
			return systems[world.Attrs[id].System]
		})
		for _, find := range risks {
			riskID, err := newInstance(ConceptAdverseEffect, drugName+" adverse effect: "+nameOf(world, find))
			if err != nil {
				return nil, err
			}
			if err := store.AddAssertion(kb.Assertion{Subject: drugID, Relationship: "cause", Object: riskID}); err != nil {
				return nil, err
			}
			if err := store.AddAssertion(kb.Assertion{Subject: riskID, Relationship: "hasFinding", Object: med.FindingInstance[find]}); err != nil {
				return nil, err
			}
			med.Caused[find] = true
		}
		if err := addAncillaryData(rng, store, newInstance, drugID, drugName); err != nil {
			return nil, err
		}
	}

	// 4. Coverage boost: attach still-uncovered findings to random drugs
	// until the target treated/caused shares are met. The drugs come from
	// the generator's own record, not from the store: a store read between
	// writes rebuilds the store's view.
	attach := func(find eks.ConceptID, treated bool) error {
		d := rng.Intn(len(drugIDs))
		drugID, drugName := drugIDs[d], med.DrugNames[d]
		if treated {
			indID, err := newInstance(ConceptIndication, drugName+" indication: "+nameOf(world, find))
			if err != nil {
				return err
			}
			if err := store.AddAssertion(kb.Assertion{Subject: drugID, Relationship: "treat", Object: indID}); err != nil {
				return err
			}
			if err := store.AddAssertion(kb.Assertion{Subject: indID, Relationship: "hasFinding", Object: med.FindingInstance[find]}); err != nil {
				return err
			}
			med.Treated[find] = true
			return nil
		}
		riskID, err := newInstance(ConceptAdverseEffect, drugName+" adverse effect: "+nameOf(world, find))
		if err != nil {
			return err
		}
		if err := store.AddAssertion(kb.Assertion{Subject: drugID, Relationship: "cause", Object: riskID}); err != nil {
			return err
		}
		if err := store.AddAssertion(kb.Assertion{Subject: riskID, Relationship: "hasFinding", Object: med.FindingInstance[find]}); err != nil {
			return err
		}
		med.Caused[find] = true
		return nil
	}
	for _, find := range covered {
		if !med.Treated[find] && rng.Float64() < treatedShare {
			if err := attach(find, true); err != nil {
				return nil, err
			}
		}
		if !med.Caused[find] && rng.Float64() < causedShare {
			if err := attach(find, false); err != nil {
				return nil, err
			}
		}
	}

	// 5. Drug-drug interactions across the whole formulary.
	if err := addDrugInteractions(rng, store, newInstance, drugIDs, med.DrugNames, cfg.Drugs/2); err != nil {
		return nil, err
	}
	return med, nil
}

// sampleFindings picks a deterministic fraction of the findings, shuffled
// by the rng so coverage is not biased toward generation order.
func sampleFindings(rng *rand.Rand, findings []eks.ConceptID, coverage float64) []eks.ConceptID {
	n := int(float64(len(findings)) * coverage)
	if n < 1 {
		n = 1
	}
	if n > len(findings) {
		n = len(findings)
	}
	perm := rng.Perm(len(findings))
	out := make([]eks.ConceptID, 0, n)
	for _, i := range perm[:n] {
		out = append(out, findings[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Shuffle once more for popularity-rank assignment.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// varyName produces the instance's surface name and its variation class.
// Classes that cannot apply (no latent variant for paraphrase) degrade to
// exact, keeping the generator total and the class labels truthful.
func varyName(rng *rand.Rand, world *synthkb.World, cid eks.ConceptID, concept eks.Concept) (string, VariationClass) {
	r := rng.Float64()
	switch {
	case r < novelProb:
		return novelName(concept.Name), ClassNovel
	case r < novelProb+paraphraseProb:
		if variants := world.Latent[cid]; len(variants) > 0 {
			return variants[rng.Intn(len(variants))], ClassParaphrase
		}
		if alt, ok := paraphraseByLexicon(concept.Name); ok {
			return alt, ClassParaphrase
		}
		return concept.Name, ClassExact
	case r < novelProb+paraphraseProb+typoProb:
		if typo, ok := introduceTypo(rng, concept.Name); ok {
			return typo, ClassTypo
		}
		return concept.Name, ClassExact
	default:
		// Occasionally use a registered synonym — still exact-matchable.
		if len(concept.Synonyms) > 0 && rng.Float64() < 0.2 {
			return concept.Synonyms[rng.Intn(len(concept.Synonyms))], ClassExact
		}
		return concept.Name, ClassExact
	}
}

// paraLexicon are token substitutions available to the paraphrase class
// when a concept has no latent variant. They mirror common clinical
// re-phrasings and also appear in monograph text, so embeddings can learn
// them.
var paraLexicon = map[string]string{
	"infection":     "infectious process",
	"inflammation":  "inflammatory condition",
	"pain":          "discomfort",
	"injury":        "trauma",
	"obstruction":   "blockage",
	"insufficiency": "failure",
	"hemorrhage":    "bleeding",
	"degeneration":  "deterioration",
}

func paraphraseByLexicon(name string) (string, bool) {
	toks := stringutil.Tokenize(name)
	for i, tok := range toks {
		if alt, ok := paraLexicon[tok]; ok {
			out := append(append([]string{}, toks[:i]...), alt)
			out = append(out, toks[i+1:]...)
			return strings.Join(out, " "), true
		}
	}
	return "", false
}

// introduceTypo applies 1–2 random character edits to letter positions; it
// reports false for names too short to corrupt safely or when the edits
// normalize back to the original (e.g. whitespace-only damage).
func introduceTypo(rng *rand.Rand, name string) (string, bool) {
	orig := []rune(name)
	if len(orig) < 6 {
		return "", false
	}
	for attempt := 0; attempt < 8; attempt++ {
		runes := append([]rune(nil), orig...)
		edits := 1 + rng.Intn(2)
		for e := 0; e < edits; e++ {
			pos := letterPos(rng, runes)
			if pos < 0 {
				break
			}
			switch rng.Intn(3) {
			case 0: // deletion
				runes = append(runes[:pos], runes[pos+1:]...)
			case 1: // duplication
				runes = append(runes[:pos+1], runes[pos:]...)
			default: // substitution
				runes[pos] = 'a' + rune(rng.Intn(26))
			}
		}
		typo := string(runes)
		if stringutil.Normalize(typo) != stringutil.Normalize(name) {
			return typo, true
		}
	}
	return "", false
}

// letterPos picks a random interior letter index, or -1 when none exists.
func letterPos(rng *rand.Rand, runes []rune) int {
	for attempt := 0; attempt < 16; attempt++ {
		pos := 1 + rng.Intn(len(runes)-2)
		r := runes[pos]
		if r >= 'a' && r <= 'z' {
			return pos
		}
	}
	return -1
}

// novelName rephrases beyond any matcher's reach by wrapping the head noun
// in boilerplate that shares no rare tokens with the original.
func novelName(name string) string {
	toks := stringutil.Tokenize(name)
	head := toks[len(toks)-1]
	return "presentation consistent with unspecified " + head + " of uncertain etiology"
}

func nameOf(world *synthkb.World, id eks.ConceptID) string {
	c, _ := world.Graph.Concept(id)
	return c.Name
}

// pickSystems selects the body system a drug specializes in.
func pickSystems(rng *rand.Rand, world *synthkb.World, covered []eks.ConceptID) map[string]bool {
	seen := map[string]bool{}
	var systems []string
	for _, id := range covered {
		s := world.Attrs[id].System
		if s != "" && !seen[s] {
			seen[s] = true
			systems = append(systems, s)
		}
	}
	sort.Strings(systems)
	out := map[string]bool{}
	if len(systems) > 0 {
		// One specialty system per drug: keeps each monograph anatomically
		// coherent, which both mirrors real compendia and gives the
		// distributional embeddings a clean system signal.
		out[systems[rng.Intn(len(systems))]] = true
	}
	return out
}

// samplePopular draws up to n distinct concepts weighted by popularity,
// restricted by the filter.
func samplePopular(rng *rand.Rand, ids []eks.ConceptID, pop map[eks.ConceptID]float64, n int, filter func(eks.ConceptID) bool) []eks.ConceptID {
	var candidates []eks.ConceptID
	total := 0.0
	for _, id := range ids {
		if filter(id) {
			candidates = append(candidates, id)
			total += pop[id]
		}
	}
	if len(candidates) == 0 || total == 0 {
		return nil
	}
	count := 1 + rng.Intn(n)
	chosen := map[eks.ConceptID]bool{}
	var out []eks.ConceptID
	for attempts := 0; len(out) < count && attempts < 20*count; attempts++ {
		r := rng.Float64() * total
		acc := 0.0
		for _, id := range candidates {
			acc += pop[id]
			if acc >= r {
				if !chosen[id] {
					chosen[id] = true
					out = append(out, id)
				}
				break
			}
		}
	}
	return out
}

// drugName fabricates a pronounceable drug name, deterministic per index
// plus rng state.
func drugName(rng *rand.Rand, index int) string {
	prefixes := []string{"ald", "bex", "cor", "dal", "evo", "fin", "gal", "hyd", "ixa", "jul", "kel", "lor", "mav", "nex", "oxi", "pra", "quil", "rez", "sol", "tev", "umb", "vax", "wil", "xan", "yel", "zol"}
	middles := []string{"a", "e", "i", "o", "u", "ora", "ine", "ax", "ide"}
	suffixes := []string{"mab", "nib", "pril", "sartan", "statin", "cillin", "micin", "zole", "pine", "olol", "afil", "gliptin"}
	return prefixes[index%len(prefixes)] + middles[rng.Intn(len(middles))] + suffixes[rng.Intn(len(suffixes))] + fmt.Sprintf("-%d", index)
}
