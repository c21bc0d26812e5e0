package medkb

import (
	"fmt"
	"math/rand"
	"strings"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/synthkb"
)

// CorpusConfig controls monograph corpus generation.
type CorpusConfig struct {
	// Seed drives all randomness.
	Seed int64
	// MentionScale multiplies per-finding mention counts. Default 12.
	MentionScale float64
	// LatentMentionProb is the probability a mention uses a latent surface
	// variant instead of the preferred name — this is what lets the
	// embedding model learn that "renal disease" means "kidney disease".
	// Default 0.2.
	LatentMentionProb float64
	// SynonymMentionProb is the probability a mention uses a registered
	// synonym. Default 0.15.
	SynonymMentionProb float64
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.MentionScale <= 0 {
		c.MentionScale = 12
	}
	if c.LatentMentionProb <= 0 {
		c.LatentMentionProb = 0.2
	}
	if c.SynonymMentionProb <= 0 {
		c.SynonymMentionProb = 0.15
	}
	return c
}

var indicationTemplates = []string{
	"%s is indicated for the treatment of %s in adult patients.",
	"clinical trials demonstrated efficacy of %s against %s.",
	"patients presenting with %s responded to therapy with %s.",
	"%s provides symptomatic relief of %s.",
	"use %s for the management of %s when first line therapy fails.",
}

var riskTemplates = []string{
	"cases of %s have been reported during treatment with %s.",
	"%s may occur in patients receiving %s.",
	"monitor for signs of %s while administering %s.",
	"treatment with %s was associated with %s in postmarketing surveillance.",
	"discontinue %s if %s develops.",
}

var generalBoilerplate = []string{
	"store at controlled room temperature away from moisture and heat.",
	"the pharmacokinetic profile shows linear absorption after oral administration.",
	"dose adjustment may be required in patients with reduced clearance.",
	"advise patients to read the medication guide before starting therapy.",
	"the mechanism of action involves selective receptor binding.",
}

// BuildCorpus generates one monograph document per drug in the MED. Each
// monograph has an Indications section (labeled with the
// Indication-hasFinding-Finding context), an Adverse Reactions section
// (Risk-hasFinding-Finding), and a general unlabeled section. Mention
// counts scale with finding popularity, reproducing the skew the paper
// notes ("asthma is mentioned in 54 drug descriptions ... lung cancer has
// only a handful").
func BuildCorpus(world *synthkb.World, med *MED, cfg CorpusConfig) *corpus.Corpus {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var docs []corpus.Document
	drugIDs := med.Store.InstancesOf(ConceptDrug)
	for _, drugID := range drugIDs {
		drug, _ := med.Store.Instance(drugID)
		var indSentences, riskSentences []string

		for _, indID := range med.Store.Objects("treat", drugID) {
			for _, findInstID := range med.Store.Objects("hasFinding", indID) {
				cid, ok := med.Gold[findInstID]
				if !ok {
					continue
				}
				mentions := mentionCount(rng, med.Popularity[cid], cfg.MentionScale)
				for m := 0; m < mentions; m++ {
					surface := surfaceForm(rng, world, cid, cfg)
					tmpl := indicationTemplates[rng.Intn(len(indicationTemplates))]
					indSentences = append(indSentences, fmt.Sprintf(tmpl, drug.Name, systemHint(rng, world, cid, surface)))
				}
			}
		}
		for _, riskID := range med.Store.Objects("cause", drugID) {
			for _, findInstID := range med.Store.Objects("hasFinding", riskID) {
				cid, ok := med.Gold[findInstID]
				if !ok {
					continue
				}
				// Risk sections are wordy: adverse events are re-listed under
				// warnings, precautions and postmarketing experience. The
				// classic side-effect vocabulary — findings that are adverse
				// events but not treatment targets — dominates this text, the
				// way nausea or dizziness blanket real monographs. Context-
				// blind frequency ranking finds these attractive; only the
				// per-context frequencies can tell they never appear as
				// indications.
				scale := 1.5 * cfg.MentionScale
				if !med.Treated[cid] {
					scale *= 3
				}
				mentions := 1 + mentionCount(rng, med.Popularity[cid], scale)
				for m := 0; m < mentions; m++ {
					surface := surfaceForm(rng, world, cid, cfg)
					tmpl := riskTemplates[rng.Intn(len(riskTemplates))]
					riskSentences = append(riskSentences, fmt.Sprintf(tmpl, systemHint(rng, world, cid, surface), drug.Name))
				}
			}
		}
		general := []string{
			generalBoilerplate[rng.Intn(len(generalBoilerplate))],
			generalBoilerplate[rng.Intn(len(generalBoilerplate))],
		}
		docs = append(docs, corpus.Document{
			ID:    fmt.Sprintf("monograph-%d", drugID),
			Title: drug.Name,
			Sections: []corpus.Section{
				{Label: CtxIndicationFinding, Text: strings.Join(indSentences, " ")},
				{Label: CtxRiskFinding, Text: strings.Join(riskSentences, " ")},
				{Label: "", Text: strings.Join(general, " ")},
			},
		})
	}
	return corpus.New(docs)
}

// mentionCount converts a popularity weight into a per-document mention
// count: popular findings are mentioned several times, rare ones once.
func mentionCount(rng *rand.Rand, popularity, scale float64) int {
	n := int(popularity*scale) + 1
	if rng.Float64() < 0.3 {
		n++
	}
	return n
}

// systemHint sometimes extends a finding mention with its body system
// ("sinus obstruction of the respiratory system") the way real monographs
// anchor conditions anatomically. The extra co-occurrence between organ
// tokens and their system adjective is what lets distributional embeddings
// cluster terminology by body system.
func systemHint(rng *rand.Rand, world *synthkb.World, cid eks.ConceptID, surface string) string {
	sys := world.Attrs[cid].System
	if sys == "" {
		return surface
	}
	switch r := rng.Float64(); {
	case r < 0.35:
		return surface + " of the " + sys + " system"
	case r < 0.7:
		return sys + " conditions such as " + surface
	default:
		return surface
	}
}

// surfaceForm picks how a concept is mentioned: preferred name, registered
// synonym, or latent variant. Using the paraphrase lexicon in running text
// also exposes those substitutions to the embedding model.
func surfaceForm(rng *rand.Rand, world *synthkb.World, cid eks.ConceptID, cfg CorpusConfig) string {
	c, _ := world.Graph.Concept(cid)
	r := rng.Float64()
	if latent := world.Latent[cid]; len(latent) > 0 && r < cfg.LatentMentionProb {
		return latent[rng.Intn(len(latent))]
	}
	if len(c.Synonyms) > 0 && r < cfg.LatentMentionProb+cfg.SynonymMentionProb {
		return c.Synonyms[rng.Intn(len(c.Synonyms))]
	}
	if alt, ok := paraphraseByLexicon(c.Name); ok && rng.Float64() < 0.12 {
		return alt
	}
	return c.Name
}

// generalTopics seed the out-of-domain corpus for the pre-trained
// embedding baseline: everyday topics whose vocabulary barely overlaps
// clinical terminology, reproducing the paper's observation that a model
// trained on a different corpus leaves many medical words out of
// vocabulary.
var generalTopics = [][]string{
	{"the", "market", "closed", "higher", "after", "strong", "earnings", "reports", "from", "technology", "companies"},
	{"the", "team", "won", "the", "championship", "after", "a", "dramatic", "overtime", "victory", "on", "sunday"},
	{"heavy", "rain", "is", "expected", "across", "the", "region", "with", "flooding", "possible", "in", "low", "areas"},
	{"the", "recipe", "calls", "for", "fresh", "basil", "tomatoes", "olive", "oil", "and", "a", "pinch", "of", "salt"},
	{"lawmakers", "debated", "the", "new", "infrastructure", "bill", "late", "into", "the", "evening", "session"},
	{"the", "museum", "opened", "a", "new", "exhibition", "of", "modern", "sculpture", "this", "weekend"},
	{"researchers", "announced", "progress", "on", "battery", "technology", "for", "electric", "vehicles"},
	{"the", "airline", "added", "new", "routes", "to", "coastal", "cities", "for", "the", "summer", "season"},
	// A thin medical sliver so the pre-trained model is not entirely void of
	// clinical words — mirrors general corpora that mention common terms.
	{"doctors", "recommend", "rest", "and", "fluids", "for", "patients", "with", "fever", "or", "headache"},
	{"regular", "exercise", "reduces", "the", "risk", "of", "heart", "disease", "and", "diabetes"},
}

// BuildPretrainCorpus generates the corpus standing in for the paper's
// pre-trained biomedical embeddings (reference [32]): a *different* medical
// corpus over the same terminology space, with only partial coverage —
// "the model was trained on a different medical corpus and many of the
// words contained in SNOMED CT are out of its vocabulary". It mentions a
// seeded fraction of the world's finding names in generic clinical
// sentences, never uses MED's latent paraphrase variants, and mixes in
// general-English filler so the distributional space is dominated by
// non-clinical contexts.
func BuildPretrainCorpus(world *synthkb.World, seed int64, coverage float64) *corpus.Corpus {
	if coverage <= 0 {
		coverage = 0.4
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(world.Findings))
	n := int(float64(len(world.Findings)) * coverage)
	templates := []string{
		"a retrospective cohort study of %s outcomes across three centers.",
		"the differential diagnosis included %s among other conditions.",
		"guidelines recommend early evaluation of suspected %s.",
		"incidence of %s varied by age group in the registry.",
	}
	var docs []corpus.Document
	var sentences []string
	flush := func() {
		if len(sentences) == 0 {
			return
		}
		docs = append(docs, corpus.Document{
			ID:       fmt.Sprintf("pretrain-%d", len(docs)),
			Sections: []corpus.Section{{Label: "", Text: strings.Join(sentences, " ")}},
		})
		sentences = nil
	}
	for i := 0; i < n; i++ {
		c, _ := world.Graph.Concept(world.Findings[perm[i]])
		mentions := 1 + rng.Intn(3)
		for m := 0; m < mentions; m++ {
			tmpl := templates[rng.Intn(len(templates))]
			sentences = append(sentences, fmt.Sprintf(tmpl, c.Name))
			// General-English filler dominates the space.
			topic := generalTopics[rng.Intn(len(generalTopics))]
			sentences = append(sentences, strings.Join(topic, " ")+".")
		}
		if len(sentences) >= 20 {
			flush()
		}
	}
	flush()
	return corpus.New(docs)
}
