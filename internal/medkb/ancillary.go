package medkb

import (
	"fmt"
	"math/rand"

	"medrelax/internal/kb"
)

// addAncillaryData fills out a drug's monograph-shaped record beyond
// findings: dosage (with route, form, strength), brand, class membership,
// pharmacokinetics, toxicology with overdose and antidote, interactions,
// monitoring, guideline and education entries. MED's value — and the
// reason the paper's conversational flows keep drilling down after a
// relaxation — is exactly this depth of per-drug structure; generating it
// also exercises most of the ontology's 58 relationships.
func addAncillaryData(rng *rand.Rand, store *kb.Store, newInstance func(concept, name string) (kb.InstanceID, error), drugID kb.InstanceID, drugName string) error {
	add := func(concept, name, rel string, subject kb.InstanceID) (kb.InstanceID, error) {
		id, err := newInstance(concept, name)
		if err != nil {
			return 0, err
		}
		if err := store.AddAssertion(kb.Assertion{Subject: subject, Relationship: rel, Object: id}); err != nil {
			return 0, err
		}
		return id, nil
	}

	// Dosage with route, form and strength.
	dosID, err := add("Dosage", drugName+" standard dosage", "hasDosage", drugID)
	if err != nil {
		return err
	}
	routes := []string{"oral", "intravenous", "topical", "subcutaneous", "inhaled"}
	forms := []string{"tablet", "capsule", "solution", "suspension", "cream"}
	if _, err := add("Route", drugName+" route: "+routes[rng.Intn(len(routes))], "hasRoute", dosID); err != nil {
		return err
	}
	if _, err := add("Form", drugName+" form: "+forms[rng.Intn(len(forms))], "hasForm", dosID); err != nil {
		return err
	}
	if _, err := add("Strength", fmt.Sprintf("%s strength: %d mg", drugName, 25*(1+rng.Intn(20))), "hasStrength", dosID); err != nil {
		return err
	}

	// Identity: brand, class, manufacturer, approval, schedule.
	if rng.Float64() < 0.7 {
		if _, err := add("Brand", brandName(rng, drugName), "hasBrand", drugID); err != nil {
			return err
		}
	}
	classes := []string{"analgesic class", "antibiotic class", "antihypertensive class", "anticoagulant class", "corticosteroid class"}
	if _, err := add("DrugClass", drugName+" class: "+classes[rng.Intn(len(classes))], "belongsTo", drugID); err != nil {
		return err
	}
	makers := []string{"Helix Pharma", "Noventis", "Corvalen Labs", "Meridian Biologics"}
	if _, err := add("Manufacturer", drugName+" by "+makers[rng.Intn(len(makers))], "manufacturedBy", drugID); err != nil {
		return err
	}
	if _, err := add("ApprovalStatus", drugName+" approval: marketed", "hasApprovalStatus", drugID); err != nil {
		return err
	}

	// Pharmacokinetics chain.
	pkID, err := add("Pharmacokinetics", drugName+" pharmacokinetics", "hasPharmacokinetics", drugID)
	if err != nil {
		return err
	}
	if _, err := add("HalfLife", fmt.Sprintf("%s half-life: %d hours", drugName, 1+rng.Intn(36)), "hasHalfLife", pkID); err != nil {
		return err
	}
	if _, err := add("Metabolism", drugName+" metabolism: hepatic", "hasMetabolism", pkID); err != nil {
		return err
	}
	if _, err := add("Excretion", drugName+" excretion: renal", "hasExcretion", pkID); err != nil {
		return err
	}

	// Toxicology with overdose and antidote.
	if rng.Float64() < 0.5 {
		toxID, err := add("Toxicology", drugName+" toxicology", "hasToxicology", drugID)
		if err != nil {
			return err
		}
		odID, err := add("Overdose", drugName+" overdose profile", "hasOverdose", toxID)
		if err != nil {
			return err
		}
		if _, err := add("Antidote", drugName+" antidote: supportive care", "treatedBy", odID); err != nil {
			return err
		}
	}

	// Monitoring with a lab test.
	if rng.Float64() < 0.4 {
		monID, err := add("Monitoring", drugName+" monitoring plan", "requiresMonitoring", drugID)
		if err != nil {
			return err
		}
		labs := []string{"serum creatinine", "liver panel", "complete blood count", "inr"}
		if _, err := add("LabTest", drugName+" lab: "+labs[rng.Intn(len(labs))], "monitors", monID); err != nil {
			return err
		}
	}

	// Guidance and education.
	if rng.Float64() < 0.3 {
		gID, err := add("Guideline", drugName+" clinical guideline", "recommendedBy", drugID)
		if err != nil {
			return err
		}
		if _, err := add("Evidence", drugName+" evidence: randomized trial", "hasEvidence", gID); err != nil {
			return err
		}
	}
	if _, err := add("Education", drugName+" patient education sheet", "hasEducation", drugID); err != nil {
		return err
	}
	return nil
}

// addDrugInteractions links random drug pairs through DrugInteraction
// instances; called once after all drugs exist. The drugs and their names
// come from the generator's own record, not from the store: a store read
// between writes rebuilds the store's view.
func addDrugInteractions(rng *rand.Rand, store *kb.Store, newInstance func(concept, name string) (kb.InstanceID, error), drugs []kb.InstanceID, names []string, pairs int) error {
	if len(drugs) < 2 {
		return nil
	}
	for i := 0; i < pairs; i++ {
		a := rng.Intn(len(drugs))
		b := rng.Intn(len(drugs))
		if a == b {
			continue
		}
		id, err := newInstance("DrugInteraction", names[a]+" interaction with "+names[b])
		if err != nil {
			return err
		}
		if err := store.AddAssertion(kb.Assertion{Subject: drugs[a], Relationship: "hasInteraction", Object: id}); err != nil {
			return err
		}
		if err := store.AddAssertion(kb.Assertion{Subject: id, Relationship: "interactsWithDrug", Object: drugs[b]}); err != nil {
			return err
		}
	}
	return nil
}

func brandName(rng *rand.Rand, drugName string) string {
	suffixes := []string{"ex", "or", "ium", "alis", "eva", "onix"}
	base := drugName
	if len(base) > 5 {
		base = base[:5]
	}
	return drugName + " brand: " + base + suffixes[rng.Intn(len(suffixes))]
}
