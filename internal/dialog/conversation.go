package dialog

import (
	"fmt"
	"strconv"
	"strings"

	"medrelax/internal/core"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

// Response is one system turn.
type Response struct {
	// Text is the natural-language reply.
	Text string
	// Answers are the retrieved KB answers (e.g. drug names).
	Answers []string
	// Suggestions are relaxed alternatives offered when the query term was
	// unknown (scenario 1, Figure 7). The user can pick one by name or by
	// 1-based number in the next turn.
	Suggestions []string
	// Related are additional related concepts offered alongside a direct
	// answer (scenario 2, Figure 8).
	Related []string
	// Context is the recognized query context.
	Context ontology.Context
	// Understood is false when the system could not make sense of the turn.
	Understood bool
	// UsedRelaxation reports whether query relaxation produced this turn's
	// suggestions or related concepts.
	UsedRelaxation bool
}

// Conversation is a stateful dialogue over the medical KB an ingestion
// serves. A nil Relaxer disables query relaxation, which is the "without QR"
// arm of the paper's user study.
type Conversation struct {
	ing        *core.Ingestion
	classifier *IntentClassifier
	extractor  *MentionExtractor
	relaxer    *core.Relaxer
	topK       int

	lastCtx *ontology.Context
	pending []pendingSuggestion
}

type pendingSuggestion struct {
	name      string
	instances []kb.InstanceID
}

// NewConversation assembles a dialogue over ing's store and ontology. relaxer
// may be nil to run without query relaxation.
func NewConversation(ing *core.Ingestion, classifier *IntentClassifier, extractor *MentionExtractor, relaxer *core.Relaxer) *Conversation {
	return &Conversation{
		ing:        ing,
		classifier: classifier,
		extractor:  extractor,
		relaxer:    relaxer,
		topK:       7,
	}
}

// Reset clears the dialogue state.
func (c *Conversation) Reset() {
	c.lastCtx = nil
	c.pending = nil
}

// carryOverPrefixes signal an elliptical follow-up whose context is
// inherited from the previous turn ("what about fever?" — Section 4,
// context management).
var carryOverPrefixes = []string{"what about", "how about", "and "}

// Ask processes one user turn.
func (c *Conversation) Ask(text string) Response {
	norm := stringutil.Normalize(text)

	// A pending suggestion pick?
	if len(c.pending) > 0 {
		if resp, ok := c.resolvePending(norm); ok {
			return resp
		}
		c.pending = nil
	}

	// Context: carry over for elliptical follow-ups, classify otherwise.
	ctx := c.classifyContext(norm)

	// Entity mention.
	mentions := c.extractor.Extract(norm)
	if len(mentions) == 0 {
		return Response{Text: "I don't understand. Could you rephrase?", Context: ctx}
	}
	m := mentions[0]
	// Reconcile the intent with the mention's semantic type: a Finding
	// mention can only fill a Finding-ranged context.
	if types := c.mentionConcepts(m); len(types) > 0 && !c.compatibleRange(ctx, types) {
		ctx, _ = c.classifier.ClassifyAmong(norm, func(cand ontology.Context) bool {
			return c.compatibleRange(cand, types)
		})
	}
	c.lastCtx = &ctx

	if m.Known() {
		return c.answerKnown(ctx, m)
	}
	return c.repairUnknown(ctx, m)
}

// mentionConcepts collects the ontology concepts of a mention's instances;
// a mention known only to the external knowledge source counts as a
// Finding, since the EKS vocabulary indexed for extraction is the
// clinical-finding terminology.
func (c *Conversation) mentionConcepts(m Mention) map[string]bool {
	out := map[string]bool{}
	for _, id := range m.Instances {
		if inst, ok := c.ing.Store.Instance(id); ok {
			out[inst.Concept] = true
		}
	}
	if len(out) == 0 && !m.Known() {
		out["Finding"] = true
	}
	return out
}

// compatibleRange reports whether any of the mention's concepts fits the
// context's range.
func (c *Conversation) compatibleRange(ctx ontology.Context, types map[string]bool) bool {
	for t := range types {
		if c.ing.Ontology.IsSubConceptOf(t, ctx.Range) {
			return true
		}
	}
	return false
}

func (c *Conversation) classifyContext(norm string) ontology.Context {
	if c.lastCtx != nil {
		for _, p := range carryOverPrefixes {
			if strings.HasPrefix(norm, p) {
				return *c.lastCtx
			}
		}
	}
	ctx, _ := c.classifier.Classify(norm)
	return ctx
}

// resolvePending interprets the turn as a pick among pending suggestions,
// by 1-based index or by name.
func (c *Conversation) resolvePending(norm string) (Response, bool) {
	pick := -1
	if n, err := strconv.Atoi(strings.TrimSpace(norm)); err == nil && n >= 1 && n <= len(c.pending) {
		pick = n - 1
	} else {
		for i, s := range c.pending {
			if norm == s.name || strings.Contains(norm, s.name) {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return Response{}, false
	}
	s := c.pending[pick]
	c.pending = nil
	ctx := ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	if c.lastCtx != nil {
		ctx = *c.lastCtx
	}
	answers := c.answersFor(ctx, s.instances)
	return Response{
		Text:           fmt.Sprintf("Here is what I know about %s:", s.name),
		Answers:        answers,
		Context:        ctx,
		Understood:     true,
		UsedRelaxation: true,
	}, true
}

// answerKnown handles a term the KB knows: retrieve answers, and — with
// relaxation enabled — expand with related concepts (scenario 2).
func (c *Conversation) answerKnown(ctx ontology.Context, m Mention) Response {
	resp := Response{
		Context:    ctx,
		Understood: true,
		Answers:    c.answersFor(ctx, m.Instances),
	}
	if len(resp.Answers) == 0 {
		resp.Text = fmt.Sprintf("I know %s but have no %s information about it.", m.Text, strings.ToLower(ctx.Domain))
	} else {
		resp.Text = fmt.Sprintf("Here is what I found for %s:", m.Text)
	}
	if c.relaxer != nil {
		if results, err := c.relaxer.RelaxTerm(m.Text, &ctx, 0); err == nil {
			// The expansion lists related conditions, not the query itself.
			self := map[string]bool{}
			for _, id := range c.ing.Graph.LookupName(m.Text) {
				if concept, ok := c.ing.Graph.Concept(id); ok {
					self[concept.Name] = true
				}
			}
			for _, r := range results {
				if len(resp.Related) == c.topK {
					break
				}
				if name := c.conceptName(r); name != "" && !self[name] {
					resp.Related = append(resp.Related, name)
				}
			}
			if len(resp.Related) > 0 {
				resp.UsedRelaxation = true
				resp.Text += fmt.Sprintf(" You may also be interested in %d related conditions.", len(resp.Related))
			}
		}
	}
	return resp
}

// repairUnknown handles a term absent from the KB: with relaxation, offer
// semantically related alternatives the KB does know (scenario 1); without
// it, admit defeat — the paper's "I don't understand".
func (c *Conversation) repairUnknown(ctx ontology.Context, m Mention) Response {
	resp := Response{Context: ctx}
	if c.relaxer == nil {
		resp.Text = fmt.Sprintf("I don't understand %q.", m.Text)
		return resp
	}
	results, err := c.relaxer.RelaxTerm(m.Text, &ctx, 0)
	if err != nil || len(results) == 0 {
		resp.Text = fmt.Sprintf("I don't understand %q.", m.Text)
		return resp
	}
	c.pending = nil
	for _, r := range results {
		if len(c.pending) == c.topK {
			break
		}
		name := c.conceptName(r)
		if name == "" || len(r.Instances) == 0 {
			continue
		}
		c.pending = append(c.pending, pendingSuggestion{name: name, instances: r.Instances})
		resp.Suggestions = append(resp.Suggestions, name)
	}
	if len(resp.Suggestions) == 0 {
		resp.Text = fmt.Sprintf("I don't understand %q.", m.Text)
		return resp
	}
	resp.Understood = true
	resp.UsedRelaxation = true
	resp.Text = fmt.Sprintf("I don't have information about %q, but I know these related conditions: %s. Which one would you like?",
		m.Text, strings.Join(resp.Suggestions, ", "))
	return resp
}

// answersFor retrieves answers for instances under a context, walking the
// relationship chain appropriate to the context family.
func (c *Conversation) answersFor(ctx ontology.Context, instances []kb.InstanceID) []string {
	var chain []string
	switch {
	case ctx.Relationship == "hasFinding" && c.ing.Ontology.IsSubConceptOf(ctx.Domain, "Indication"):
		chain = []string{"treat", "hasFinding"}
	case ctx.Relationship == "hasFinding" && c.ing.Ontology.IsSubConceptOf(ctx.Domain, "Risk"):
		chain = []string{"cause", "hasFinding"}
	case ctx.Domain == "Drug":
		// Forward query from a drug: list the findings of its
		// indications/risks.
		return c.drugForward(ctx, instances)
	default:
		chain = []string{ctx.Relationship}
	}
	seen := map[string]bool{}
	var out []string
	for _, inst := range instances {
		for _, ans := range c.ing.Store.PathQuery(chain, inst) {
			if a, ok := c.ing.Store.Instance(ans); ok && !seen[a.Name] {
				seen[a.Name] = true
				out = append(out, a.Name)
			}
		}
	}
	return out
}

func (c *Conversation) drugForward(ctx ontology.Context, instances []kb.InstanceID) []string {
	seen := map[string]bool{}
	var out []string
	for _, inst := range instances {
		for _, mid := range c.ing.Store.Objects(ctx.Relationship, inst) {
			for _, fid := range c.ing.Store.Objects("hasFinding", mid) {
				if f, ok := c.ing.Store.Instance(fid); ok && !seen[f.Name] {
					seen[f.Name] = true
					out = append(out, f.Name)
				}
			}
		}
	}
	return out
}

func (c *Conversation) conceptName(r core.Result) string {
	concept, ok := c.ing.Graph.Concept(r.Concept)
	if !ok {
		return ""
	}
	return concept.Name
}
