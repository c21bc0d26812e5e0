// Package ontology models the domain ontology (TBox) of a knowledge base,
// following the paper's Section 2.1: a set of concepts, a subconcept
// hierarchy among them, and named relationships (roles) with domain
// (source) and range (destination) constraints.
//
// A query context is represented by a relationship together with its
// domain and range concepts, e.g. Indication-hasFinding-Finding. The
// Contexts method enumerates all possible contexts, implementing the
// context-generation step of Algorithm 1 (lines 1–4).
package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// Concept is a class of the domain ontology, e.g. "Drug" or "Finding".
type Concept struct {
	Name string
	// Parent is the direct superconcept, or "" for top-level concepts.
	// The paper's Figure 1 uses single inheritance (e.g. AdverseEffect ⊑
	// Risk), which suffices for MED-style ontologies.
	Parent string
}

// Relationship is a role with domain and range constraints, e.g.
// {Name: "hasFinding", Domain: "Indication", Range: "Finding"}. The same
// role name may appear under several domain/range pairs.
type Relationship struct {
	Name   string
	Domain string
	Range  string
}

// Context is a relationship with its associated concepts; its string form
// is Domain-Name-Range (e.g. "Indication-hasFinding-Finding").
type Context struct {
	Domain       string
	Relationship string
	Range        string
}

// String renders the context in the paper's notation.
func (c Context) String() string {
	return c.Domain + "-" + c.Relationship + "-" + c.Range
}

// ParseContext parses the Domain-Relationship-Range notation. It fails on
// malformed input; it does not check the parts against any ontology.
func ParseContext(s string) (Context, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return Context{}, fmt.Errorf("ontology: malformed context %q (want Domain-Relationship-Range)", s)
	}
	return Context{Domain: parts[0], Relationship: parts[1], Range: parts[2]}, nil
}

// Ontology is a mutable domain ontology. The zero value is not usable;
// call New.
type Ontology struct {
	concepts   map[string]Concept
	rels       []Relationship
	relKey     map[string]bool // dedupe key domain|name|range
	relsByName map[string][]Relationship
	children   map[string][]string
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		concepts:   make(map[string]Concept),
		relKey:     make(map[string]bool),
		relsByName: make(map[string][]Relationship),
		children:   make(map[string][]string),
	}
}

// AddConcept inserts a concept. The parent, when non-empty, must already
// exist, so hierarchies are built top-down and are acyclic by construction.
func (o *Ontology) AddConcept(c Concept) error {
	if c.Name == "" {
		return fmt.Errorf("ontology: empty concept name")
	}
	if _, ok := o.concepts[c.Name]; ok {
		return fmt.Errorf("ontology: duplicate concept %q", c.Name)
	}
	if c.Parent != "" {
		if _, ok := o.concepts[c.Parent]; !ok {
			return fmt.Errorf("ontology: concept %q has unknown parent %q", c.Name, c.Parent)
		}
	}
	o.concepts[c.Name] = c
	if c.Parent != "" {
		o.children[c.Parent] = append(o.children[c.Parent], c.Name)
	}
	return nil
}

// AddRelationship inserts a relationship; both domain and range concepts
// must exist.
func (o *Ontology) AddRelationship(r Relationship) error {
	if r.Name == "" {
		return fmt.Errorf("ontology: empty relationship name")
	}
	if _, ok := o.concepts[r.Domain]; !ok {
		return fmt.Errorf("ontology: relationship %q has unknown domain %q", r.Name, r.Domain)
	}
	if _, ok := o.concepts[r.Range]; !ok {
		return fmt.Errorf("ontology: relationship %q has unknown range %q", r.Name, r.Range)
	}
	key := r.Domain + "|" + r.Name + "|" + r.Range
	if o.relKey[key] {
		return fmt.Errorf("ontology: duplicate relationship %s-%s-%s", r.Domain, r.Name, r.Range)
	}
	o.relKey[key] = true
	o.rels = append(o.rels, r)
	o.relsByName[r.Name] = append(o.relsByName[r.Name], r)
	return nil
}

// HasConcept reports whether the named concept exists.
func (o *Ontology) HasConcept(name string) bool {
	_, ok := o.concepts[name]
	return ok
}

// Concept returns the named concept.
func (o *Ontology) Concept(name string) (Concept, bool) {
	c, ok := o.concepts[name]
	return c, ok
}

// ConceptNames returns all concept names in sorted order.
func (o *Ontology) ConceptNames() []string {
	names := make([]string, 0, len(o.concepts))
	for n := range o.concepts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ConceptCount returns the number of concepts.
func (o *Ontology) ConceptCount() int { return len(o.concepts) }

// RelationshipCount returns the number of relationships.
func (o *Ontology) RelationshipCount() int { return len(o.rels) }

// RelationshipsNamed returns the relationships with the given role name,
// in insertion order. The returned slice is shared — callers must not
// modify it. Validation paths that run once per assertion use this to
// avoid the copy Relationships makes.
func (o *Ontology) RelationshipsNamed(name string) []Relationship {
	return o.relsByName[name]
}

// Relationships returns a copy of all relationships, in insertion order.
func (o *Ontology) Relationships() []Relationship {
	out := make([]Relationship, len(o.rels))
	copy(out, o.rels)
	return out
}

// Descendants returns all transitive subconcepts of name, excluding name,
// sorted.
func (o *Ontology) Descendants(name string) []string {
	var out []string
	stack := []string{name}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range o.children[cur] {
			out = append(out, ch)
			stack = append(stack, ch)
		}
	}
	sort.Strings(out)
	return out
}

// IsSubConceptOf reports whether a equals b or is a transitive subconcept
// of b.
func (o *Ontology) IsSubConceptOf(a, b string) bool {
	for cur := a; cur != ""; {
		if cur == b {
			return true
		}
		c, ok := o.concepts[cur]
		if !ok {
			return false
		}
		cur = c.Parent
	}
	return false
}

// Contexts enumerates every possible context by traversing all
// relationships with their domain and range concepts (Algorithm 1,
// lines 1–4). The result is sorted by string form for determinism.
func (o *Ontology) Contexts() []Context {
	out := make([]Context, 0, len(o.rels))
	for _, r := range o.rels {
		out = append(out, Context{Domain: r.Domain, Relationship: r.Name, Range: r.Range})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Validate checks that all relationship endpoints exist and the hierarchy
// is acyclic (guaranteed by construction, re-checked defensively).
func (o *Ontology) Validate() error {
	for _, r := range o.rels {
		if !o.HasConcept(r.Domain) || !o.HasConcept(r.Range) {
			return fmt.Errorf("ontology: relationship %s has dangling endpoint", r.Name)
		}
	}
	for name := range o.concepts {
		seen := map[string]bool{}
		for cur := name; cur != ""; {
			if seen[cur] {
				return fmt.Errorf("ontology: hierarchy cycle at %q", cur)
			}
			seen[cur] = true
			c, ok := o.concepts[cur]
			if !ok {
				return fmt.Errorf("ontology: dangling parent %q", cur)
			}
			cur = c.Parent
		}
	}
	return nil
}
