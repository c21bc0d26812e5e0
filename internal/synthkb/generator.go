package synthkb

import (
	"fmt"
	"math/rand"

	"medrelax/internal/eks"
	"medrelax/internal/stringutil"
)

// Kind classifies a generated concept.
type Kind int

// Concept kinds.
const (
	KindStructural Kind = iota // root, top-level axes, grouping nodes
	KindFinding                // clinical finding usable as a KB finding
	KindDrug                   // pharmaceutical product
)

// Attr is the latent ground truth of a generated concept: the evaluation
// oracle judges relevance from these attributes, never from the graph the
// methods see.
type Attr struct {
	Kind     Kind
	System   string // body system, for findings
	Type     string // condition type, for findings
	Organ    string // anatomical site, for templated findings ("" when n/a)
	Severity int    // modifier depth: 0 base, 1 modified, 2 staged
	Polarity int    // 0 neutral, +1/-1 for antonym pairs
}

// Config controls the generator.
type Config struct {
	// Seed drives all randomness; the same seed yields the same world.
	Seed int64
	// ConditionsPerPair is how many templated base conditions are created
	// per (system, type) pair, beyond the curated findings. Default 2.
	ConditionsPerPair int
	// ModifierProb is the probability that a base condition receives each
	// severity modifier child. Default 0.75.
	ModifierProb float64
	// StageProb is the probability that a chronic condition receives stage
	// children. Default 0.6.
	StageProb float64
	// RegisterSynonymProb is the probability that a generated surface
	// variant is registered as an official synonym; otherwise it stays
	// latent (only discoverable through corpus context). Default 0.6.
	RegisterSynonymProb float64
}

func (c Config) withDefaults() Config {
	if c.ConditionsPerPair <= 0 {
		c.ConditionsPerPair = 2
	}
	if c.ModifierProb <= 0 {
		c.ModifierProb = 0.75
	}
	if c.StageProb <= 0 {
		c.StageProb = 0.6
	}
	if c.RegisterSynonymProb <= 0 {
		c.RegisterSynonymProb = 0.6
	}
	return c
}

// World is a generated external knowledge source plus its ground truth.
type World struct {
	Graph *eks.Graph
	// Attrs is the latent attribute of every concept.
	Attrs map[eks.ConceptID]Attr
	// Findings lists every finding concept (curated + templated + antonyms
	// + modified), sorted by ID.
	Findings []eks.ConceptID
	// Drugs lists every drug concept, sorted by ID.
	Drugs []eks.ConceptID
	// Latent maps a concept to surface variants that are NOT registered as
	// synonyms in the graph; the medkb generator uses them to create
	// paraphrase-named instances.
	Latent map[eks.ConceptID][]string
	// AntonymOf links each planted antonym concept to its opposite.
	AntonymOf map[eks.ConceptID]eks.ConceptID
	// Root is the top concept.
	Root eks.ConceptID
}

// builder accumulates state during generation.
type builder struct {
	cfg       Config
	rng       *rand.Rand
	g         *eks.Graph
	world     *World
	nextID    eks.ConceptID
	usedNames map[string]bool
}

// Generate builds a synthetic SNOMED-like world.
func Generate(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	b := &builder{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		g:         eks.New(),
		nextID:    1000,
		usedNames: map[string]bool{},
	}
	b.world = &World{
		Graph:     b.g,
		Attrs:     map[eks.ConceptID]Attr{},
		Latent:    map[eks.ConceptID][]string{},
		AntonymOf: map[eks.ConceptID]eks.ConceptID{},
	}

	root, err := b.addConcept("SNOMED-like concept", Attr{Kind: KindStructural}, nil)
	if err != nil {
		return nil, err
	}
	b.world.Root = root
	if err := b.g.SetRoot(root); err != nil {
		return nil, err
	}

	finding, err := b.addConcept("clinical finding", Attr{Kind: KindStructural}, []eks.ConceptID{root})
	if err != nil {
		return nil, err
	}
	product, err := b.addConcept("pharmaceutical product", Attr{Kind: KindStructural}, []eks.ConceptID{root})
	if err != nil {
		return nil, err
	}
	// A couple of extra top-level axes for realism; nothing hangs off them.
	for _, axis := range []string{"body structure", "procedure", "observable entity"} {
		if _, err := b.addConcept(axis, Attr{Kind: KindStructural}, []eks.ConceptID{root}); err != nil {
			return nil, err
		}
	}

	if err := b.buildFindings(finding); err != nil {
		return nil, err
	}
	if err := b.buildDrugs(product); err != nil {
		return nil, err
	}
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("synthkb: generated graph invalid: %w", err)
	}
	return b.world, nil
}

// addConcept inserts a concept with a fresh ID under the given parents.
// Name collisions are rejected by returning 0 without error, signalling the
// caller to skip — collisions would make gold mappings ambiguous.
func (b *builder) addConcept(name string, attr Attr, parents []eks.ConceptID) (eks.ConceptID, error) {
	key := stringutil.Normalize(name)
	if key == "" || b.usedNames[key] {
		return 0, nil
	}
	b.usedNames[key] = true
	id := b.nextID
	b.nextID++
	if err := b.g.AddConcept(eks.Concept{ID: id, Name: name}); err != nil {
		return 0, err
	}
	for _, p := range parents {
		if err := b.g.AddSubsumption(id, p); err != nil {
			return 0, err
		}
	}
	b.world.Attrs[id] = attr
	if attr.Kind == KindFinding {
		b.world.Findings = append(b.world.Findings, id)
	}
	if attr.Kind == KindDrug {
		b.world.Drugs = append(b.world.Drugs, id)
	}
	return id, nil
}

// addSynonymOrLatent attaches a surface variant to a concept: registered as
// a graph synonym with probability RegisterSynonymProb, kept latent
// otherwise.
func (b *builder) addSynonymOrLatent(id eks.ConceptID, variant string) {
	key := stringutil.Normalize(variant)
	if key == "" || b.usedNames[key] {
		return
	}
	if b.rng.Float64() < b.cfg.RegisterSynonymProb {
		b.usedNames[key] = true
		b.registerSynonym(id, variant)
	} else {
		b.world.Latent[id] = append(b.world.Latent[id], variant)
	}
}

// registerSynonym re-adds the concept's synonym through the graph's name
// index. The eks API takes synonyms at AddConcept time; since generation
// discovers variants later, we use the exported index through a rebuild of
// the concept — not available — so the graph gains synonyms via a small
// helper there. See eks.AddSynonym.
func (b *builder) registerSynonym(id eks.ConceptID, variant string) {
	b.g.AddSynonym(id, variant)
}

func (b *builder) buildFindings(findingRoot eks.ConceptID) error {
	// System disorder nodes.
	systemNode := map[string]eks.ConceptID{}
	for _, bs := range bodySystems {
		id, err := b.addConcept("disorder of "+bs.Name+" system", Attr{Kind: KindStructural, System: bs.Name}, []eks.ConceptID{findingRoot})
		if err != nil {
			return err
		}
		systemNode[bs.Name] = id
	}
	// (system, type) nodes. SNOMED's finding hierarchy is primarily
	// site-organized; condition-type grouping happens within a body system,
	// so the pair node's parent is the system node.
	pairNode := map[string]eks.ConceptID{}
	for _, bs := range bodySystems {
		for _, ct := range conditionTypes {
			name := bs.Adjective + " " + ct.Noun + " disorder"
			id, err := b.addConcept(name,
				Attr{Kind: KindStructural, System: bs.Name, Type: ct.Name},
				[]eks.ConceptID{systemNode[bs.Name]})
			if err != nil {
				return err
			}
			pairNode[bs.Name+"|"+ct.Name] = id
		}
	}

	// Curated findings.
	for _, cf := range curatedFindings {
		parent, ok := pairNode[cf.System+"|"+cf.Type]
		if !ok {
			return fmt.Errorf("synthkb: curated finding %q references unknown pair %s/%s", cf.Name, cf.System, cf.Type)
		}
		id, err := b.addConcept(cf.Name, Attr{Kind: KindFinding, System: cf.System, Type: cf.Type}, []eks.ConceptID{parent})
		if err != nil {
			return err
		}
		if id == 0 {
			continue
		}
		for _, syn := range cf.Synonyms {
			key := stringutil.Normalize(syn)
			if !b.usedNames[key] {
				b.usedNames[key] = true
				b.registerSynonym(id, syn)
			}
		}
		b.world.Latent[id] = append(b.world.Latent[id], cf.Latent...)
		if err := b.addModifiedChildren(id, cf.Name, Attr{Kind: KindFinding, System: cf.System, Type: cf.Type}); err != nil {
			return err
		}
	}

	// Templated conditions per (system, type). Most of them get a
	// second parent — the same system's pair node of a clinically related
	// type (e.g. a bronchial infection is also an inflammatory disorder) —
	// giving the DAG SNOMED-like multi-parenthood without collapsing
	// cross-system distances.
	for _, bs := range bodySystems {
		for _, ct := range conditionTypes {
			parent := pairNode[bs.Name+"|"+ct.Name]
			organs := b.pickOrgans(bs, b.cfg.ConditionsPerPair)
			for _, organ := range organs {
				name := organ + " " + ct.Noun
				attr := Attr{Kind: KindFinding, System: bs.Name, Type: ct.Name, Organ: organ}
				parents := []eks.ConceptID{parent}
				if len(ct.Related) > 0 && b.rng.Float64() < 0.7 {
					rel := ct.Related[b.rng.Intn(len(ct.Related))]
					if second, ok := pairNode[bs.Name+"|"+rel]; ok {
						parents = append(parents, second)
					}
				}
				id, err := b.addConcept(name, attr, parents)
				if err != nil {
					return err
				}
				if id == 0 {
					continue
				}
				// Surface variant from the system's synonym lexicon.
				if alt, ok := bs.SynonymPairs[organ]; ok {
					b.addSynonymOrLatent(id, alt+" "+ct.Noun)
				}
				if err := b.addModifiedChildren(id, name, attr); err != nil {
					return err
				}
			}
		}
	}

	// Antonym pairs under their system's disorder node.
	for _, as := range antonymStems {
		parent, ok := systemNode[as.System]
		if !ok {
			return fmt.Errorf("synthkb: antonym stem %q references unknown system %s", as.Stem, as.System)
		}
		hi, err := b.addConcept("hyper"+as.Stem, Attr{Kind: KindFinding, System: as.System, Type: "imbalance", Organ: as.Stem, Polarity: +1}, []eks.ConceptID{parent})
		if err != nil {
			return err
		}
		lo, err := b.addConcept("hypo"+as.Stem, Attr{Kind: KindFinding, System: as.System, Type: "imbalance", Organ: as.Stem, Polarity: -1}, []eks.ConceptID{parent})
		if err != nil {
			return err
		}
		if hi == 0 || lo == 0 {
			continue
		}
		b.world.AntonymOf[hi] = lo
		b.world.AntonymOf[lo] = hi
		// Fixed polarity order: map iteration would randomize rng draws.
		if syn, ok := as.Synonym[+1]; ok {
			b.addSynonymOrLatent(hi, syn)
		}
		if syn, ok := as.Synonym[-1]; ok {
			b.addSynonymOrLatent(lo, syn)
		}
	}
	return nil
}

// pickOrgans returns n organs of the system, cycling deterministically when
// n exceeds the lexicon.
func (b *builder) pickOrgans(bs bodySystem, n int) []string {
	out := make([]string, 0, n)
	perm := b.rng.Perm(len(bs.Organs))
	for i := 0; i < n && i < len(bs.Organs); i++ {
		out = append(out, bs.Organs[perm[i]])
	}
	return out
}

// addModifiedChildren hangs severity-modified children (and stage
// grandchildren under chronic) off a base condition.
func (b *builder) addModifiedChildren(base eks.ConceptID, baseName string, attr Attr) error {
	for _, mod := range severityModifiers {
		if b.rng.Float64() >= b.cfg.ModifierProb {
			continue
		}
		childAttr := attr
		childAttr.Severity = 1
		name := mod + " " + baseName
		id, err := b.addConcept(name, childAttr, []eks.ConceptID{base})
		if err != nil {
			return err
		}
		if id == 0 || mod != "chronic" {
			continue
		}
		if b.rng.Float64() >= b.cfg.StageProb {
			continue
		}
		for _, stage := range stageModifiers {
			stageAttr := attr
			stageAttr.Severity = 2
			if _, err := b.addConcept(name+" "+stage, stageAttr, []eks.ConceptID{id}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *builder) buildDrugs(productRoot eks.ConceptID) error {
	for _, dc := range drugClasses {
		classID, err := b.addConcept(dc.Name, Attr{Kind: KindStructural}, []eks.ConceptID{productRoot})
		if err != nil {
			return err
		}
		for _, member := range dc.Members {
			if _, err := b.addConcept(member, Attr{Kind: KindDrug}, []eks.ConceptID{classID}); err != nil {
				return err
			}
		}
	}
	return nil
}
