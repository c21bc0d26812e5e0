package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"medrelax/internal/eks"
	"medrelax/internal/nlq"
)

// The NLQ experiment quantifies the paper's title claim — expanding the
// set of queries a medical KB can answer — on the natural language query
// pipeline of Section 6.2: the same generated question workload is run
// through the NLQ system with and without relaxation, and a question
// counts as answered when the pipeline produces a non-empty result set
// whose answers are correct for the target concept.

// NLQConfig controls the workload.
type NLQConfig struct {
	// Seed drives question generation.
	Seed int64
	// Questions is the workload size. Default 200.
	Questions int
}

const (
	// colloquialShare is the fraction of questions phrased with
	// non-canonical terminology (latent variants, synonyms).
	colloquialShare float64 = 0.45
	// unknownShare is the fraction of questions about concepts absent from
	// the KB entirely, answerable only through relaxation.
	unknownShare float64 = 0.15
)

func (c NLQConfig) withDefaults() NLQConfig {
	if c.Questions <= 0 {
		c.Questions = 200
	}
	return c
}

// NLQQuestion is one generated workload item.
type NLQQuestion struct {
	Text string
	// Target is the concept the question is really about.
	Target eks.ConceptID
	// Kind labels the phrasing class for the breakdown.
	Kind string
}

// NLQOutcome aggregates one system arm's results.
type NLQOutcome struct {
	Answered, Correct, Total int
	// ByKind breaks the correct counts down by phrasing class.
	ByKind map[string]int
}

// AnsweredRate returns the share of questions with any answer.
func (o NLQOutcome) AnsweredRate() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Answered) / float64(o.Total)
}

// CorrectRate returns the share of questions answered correctly.
func (o NLQOutcome) CorrectRate() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Correct) / float64(o.Total)
}

// NLQResult is the two-arm comparison.
type NLQResult struct {
	WithQR, WithoutQR NLQOutcome
	Questions         []NLQQuestion
}

// GenerateNLQWorkload builds the question set: canonical, colloquial
// (synonym/latent phrasing of covered concepts) and unknown (concepts
// without KB instances) treatment questions.
func GenerateNLQWorkload(o *Oracle, flagged map[eks.ConceptID]bool, cfg NLQConfig) []NLQQuestion {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var treated, unknown []eks.ConceptID
	for _, cid := range o.World.Findings {
		switch {
		case o.Med.Treated[cid]:
			treated = append(treated, cid)
		case !flagged[cid]:
			unknown = append(unknown, cid)
		}
	}
	sort.Slice(treated, func(i, j int) bool { return treated[i] < treated[j] })
	sort.Slice(unknown, func(i, j int) bool { return unknown[i] < unknown[j] })
	if len(treated) == 0 {
		return nil
	}

	out := make([]NLQQuestion, 0, cfg.Questions)
	for i := 0; i < cfg.Questions; i++ {
		r := rng.Float64()
		switch {
		case r < unknownShare && len(unknown) > 0:
			target := unknown[rng.Intn(len(unknown))]
			c, _ := o.World.Graph.Concept(target)
			out = append(out, NLQQuestion{
				Text:   "which drugs treat " + c.Name,
				Target: target,
				Kind:   "unknown-concept",
			})
		case r < unknownShare+colloquialShare:
			target := treated[rng.Intn(len(treated))]
			c, _ := o.World.Graph.Concept(target)
			term := c.Name
			kind := "canonical" // degrade gracefully when no variant exists
			options := append(append([]string{}, c.Synonyms...), o.World.Latent[target]...)
			if len(options) > 0 {
				term = options[rng.Intn(len(options))]
				kind = "colloquial"
			}
			out = append(out, NLQQuestion{Text: "which drugs treat " + term, Target: target, Kind: kind})
		default:
			target := treated[rng.Intn(len(treated))]
			c, _ := o.World.Graph.Concept(target)
			out = append(out, NLQQuestion{Text: "which drugs treat " + c.Name, Target: target, Kind: "canonical"})
		}
	}
	return out
}

// RunNLQExperiment executes the workload on both arms. An answer set is
// judged correct when non-empty and every returned drug treats some
// finding the oracle accepts as a relaxation of the target (or the target
// itself).
func RunNLQExperiment(o *Oracle, flagged map[eks.ConceptID]bool, withQR, withoutQR *nlq.System, cfg NLQConfig) NLQResult {
	questions := GenerateNLQWorkload(o, flagged, cfg)
	res := NLQResult{Questions: questions}
	res.WithQR = runNLQArm(o, withQR, questions)
	res.WithoutQR = runNLQArm(o, withoutQR, questions)
	return res
}

func runNLQArm(o *Oracle, system *nlq.System, questions []NLQQuestion) NLQOutcome {
	out := NLQOutcome{Total: len(questions), ByKind: map[string]int{}}
	for _, q := range questions {
		ans, err := system.Answer(q.Text)
		if err != nil || len(ans.Results) == 0 {
			continue
		}
		out.Answered++
		if nlqAnswerCorrect(o, q.Target, ans) {
			out.Correct++
			out.ByKind[q.Kind]++
		}
	}
	return out
}

// nlqAnswerCorrect checks that the executed query was grounded in findings
// the oracle accepts for the target.
func nlqAnswerCorrect(o *Oracle, target eks.ConceptID, ans nlq.Answer) bool {
	// The structured query's terminal instances are the grounding: each
	// must map to a concept relevant to the target.
	grounded := 0
	for _, iid := range ans.Query.Terminal {
		cid, ok := o.Med.Gold[iid]
		if !ok {
			continue
		}
		if cid == target || o.Relevant(target, cid, nil) {
			grounded++
		}
	}
	return grounded > 0
}

// FormatNLQ renders the experiment like the paper's prose comparison.
func FormatNLQ(res NLQResult) string {
	rows := [][]string{
		{"answered", fmt.Sprintf("%.1f%%", 100*res.WithQR.AnsweredRate()), fmt.Sprintf("%.1f%%", 100*res.WithoutQR.AnsweredRate())},
		{"correct", fmt.Sprintf("%.1f%%", 100*res.WithQR.CorrectRate()), fmt.Sprintf("%.1f%%", 100*res.WithoutQR.CorrectRate())},
	}
	kinds := map[string]bool{}
	for k := range res.WithQR.ByKind {
		kinds[k] = true
	}
	for k := range res.WithoutQR.ByKind {
		kinds[k] = true
	}
	var sorted []string
	for k := range kinds {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		rows = append(rows, []string{"correct: " + k,
			fmt.Sprintf("%d", res.WithQR.ByKind[k]),
			fmt.Sprintf("%d", res.WithoutQR.ByKind[k])})
	}
	return FormatTable("NLQ query-answerability experiment (Section 6.2 integration)",
		[]string{"Metric", "with QR", "without QR"}, rows)
}
