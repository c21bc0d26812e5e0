package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// StudyConfig controls the simulated user study of Table 3.
type StudyConfig struct {
	// Seed drives participant behaviour.
	Seed int64
	// Participants is the panel size; the paper used 20 SMEs.
	Participants int
	// T1Questions per participant around given concepts; the paper used 20.
	T1Questions int
	// T2Questions per participant, free choice; the paper used 10.
	T2Questions int
}

const (
	// maxAttempts is the initial ask plus rephrases; the paper allowed 5.
	maxAttempts = 5
	// unanswerableProb is the chance a T2 question targets a concept with
	// no KB answer or whose expected answer is missing; the paper observed
	// 9 unanswerable questions plus 7 missing-answer incidents out of 200.
	unanswerableProb float64 = 0.09
)

func (c StudyConfig) withDefaults() StudyConfig {
	if c.Participants <= 0 {
		c.Participants = 20
	}
	if c.T1Questions <= 0 {
		c.T1Questions = 20
	}
	if c.T2Questions <= 0 {
		c.T2Questions = 10
	}
	return c
}

// GradeDist is a distribution over the 5-point satisfaction scale.
type GradeDist struct {
	Counts [5]int // index 0 = grade 1 ("very dissatisfied") ... 4 = grade 5
}

func (g *GradeDist) add(grade int) {
	if grade < 1 {
		grade = 1
	}
	if grade > 5 {
		grade = 5
	}
	g.Counts[grade-1]++
}

// Total returns the number of grades recorded.
func (g GradeDist) Total() int {
	n := 0
	for _, c := range g.Counts {
		n += c
	}
	return n
}

// Percent returns the share of the given grade (1–5) in percent.
func (g GradeDist) Percent(grade int) float64 {
	n := g.Total()
	if n == 0 || grade < 1 || grade > 5 {
		return 0
	}
	return 100 * float64(g.Counts[grade-1]) / float64(n)
}

// Average returns the mean grade.
func (g GradeDist) Average() float64 {
	n := g.Total()
	if n == 0 {
		return 0
	}
	sum := 0
	for i, c := range g.Counts {
		sum += (i + 1) * c
	}
	return float64(sum) / float64(n)
}

// StudyArm is one system condition (with or without QR).
type StudyArm struct {
	T1, T2 GradeDist
}

// StudyResult is the full Table 3.
type StudyResult struct {
	WithQR, WithoutQR StudyArm
}

// StudyEnvironment bundles what the simulator needs: two conversations over
// the same KB (one with relaxation, one without), the ground truth for term
// variation and relevance judgment, and the query workload material.
type StudyEnvironment struct {
	WithQR    *dialog.Conversation
	WithoutQR *dialog.Conversation
	Oracle    *Oracle
	// Flagged is the FEC set: concepts the KB knows.
	Flagged map[eks.ConceptID]bool
}

// RunUserStudy simulates the paper's two-task user study. Each simulated
// participant asks questions about target conditions using imperfect
// terminology (synonyms, paraphrases, typos, and sometimes terms absent
// from the KB altogether), rephrases after unhelpful responses — moving
// toward canonical phrasing — and grades the interaction 5 minus the number
// of failed attempts. Orthogonal incidents the paper reports (conversation
// flow complaints, unexplained low grades, overwhelming result volume) are
// injected at the observed rates in both arms.
func RunUserStudy(env StudyEnvironment, cfg StudyConfig) StudyResult {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res StudyResult

	// T1's "20 given concepts": popular treated conditions.
	given := topTreated(env, 20)
	answerable, unanswerable := splitAnswerable(env)

	for p := 0; p < cfg.Participants; p++ {
		for q := 0; q < cfg.T1Questions; q++ {
			target := given[rng.Intn(len(given))]
			g1 := gradeQuestion(env, env.WithQR, rng, target, true)
			g2 := gradeQuestion(env, env.WithoutQR, rng, target, false)
			res.WithQR.T1.add(g1)
			res.WithoutQR.T1.add(g2)
		}
		for q := 0; q < cfg.T2Questions; q++ {
			var target eks.ConceptID
			answerableTarget := true
			if len(unanswerable) > 0 && rng.Float64() < unanswerableProb {
				target = unanswerable[rng.Intn(len(unanswerable))]
				answerableTarget = false
			} else {
				target = answerable[rng.Intn(len(answerable))]
			}
			g1 := gradeQuestion(env, env.WithQR, rng, target, true)
			g2 := gradeQuestion(env, env.WithoutQR, rng, target, false)
			if !answerableTarget {
				// The expected answer is simply not in the KB: even a good
				// relaxed alternative leaves the participant short of what
				// they asked for (the paper's "7 incidences in which the
				// expected answers are not contained in the given KB").
				g1 -= 2
				if g1 < 1 {
					g1 = 1
				}
			}
			res.WithQR.T2.add(g1)
			res.WithoutQR.T2.add(g2)
		}
	}
	return res
}

// topTreated returns the n most popular treated concepts.
func topTreated(env StudyEnvironment, n int) []eks.ConceptID {
	type pc struct {
		id  eks.ConceptID
		pop float64
	}
	var list []pc
	for cid := range env.Oracle.Med.Treated {
		list = append(list, pc{id: cid, pop: env.Oracle.Med.Popularity[cid]})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].pop != list[j].pop {
			return list[i].pop > list[j].pop
		}
		return list[i].id < list[j].id
	})
	if n > len(list) {
		n = len(list)
	}
	out := make([]eks.ConceptID, 0, n)
	for _, x := range list[:n] {
		out = append(out, x.id)
	}
	return out
}

// splitAnswerable partitions the world's findings into those with KB data
// and those the KB cannot answer at all.
func splitAnswerable(env StudyEnvironment) (answerable, unanswerable []eks.ConceptID) {
	for _, cid := range env.Oracle.World.Findings {
		if env.Oracle.Med.Treated[cid] || env.Oracle.Med.Caused[cid] {
			answerable = append(answerable, cid)
		} else if !env.Flagged[cid] {
			unanswerable = append(unanswerable, cid)
		}
	}
	sort.Slice(answerable, func(i, j int) bool { return answerable[i] < answerable[j] })
	sort.Slice(unanswerable, func(i, j int) bool { return unanswerable[i] < unanswerable[j] })
	return answerable, unanswerable
}

// gradeQuestion runs one question through one conversation arm and returns
// the participant's grade.
func gradeQuestion(env StudyEnvironment, conv *dialog.Conversation, rng *rand.Rand, target eks.ConceptID, qrArm bool) int {
	conv.Reset()
	ctx := questionContext(env, target)
	failures := 0
	overwhelmed := false
	success := false
	// A share of participants only knows the condition colloquially and
	// cannot rephrase into the KB's terminology no matter how often the
	// system fails them — the paper's "pyelectasia" situation.
	knowsCanonical := rng.Float64() < 0.65
	for attempt := 0; attempt < maxAttempts; attempt++ {
		term := termForAttempt(env, rng, target, attempt, knowsCanonical)
		resp := conv.Ask(fmt.Sprintf(questionTemplate(ctx), term))
		ok, extra, many := judgeResponse(env, conv, resp, target, ctx)
		if many {
			overwhelmed = true
		}
		if ok {
			success = true
			failures += extra
			break
		}
		failures++
	}
	grade := 5 - failures
	if !success {
		grade = 1
	}
	// Orthogonal incidents at the paper's observed rates (Section 7.2):
	// conversational-flow complaints (11/400-ish), unexplained low grades
	// (10), and information overload on expanded results (6, QR arm).
	switch {
	case rng.Float64() < 0.10:
		grade -= 1 + rng.Intn(2) // flow complaint
	case rng.Float64() < 0.05:
		grade = 1 + rng.Intn(3) // unexplained low grade
	}
	if qrArm && overwhelmed && rng.Float64() < 0.4 {
		grade--
	}
	if grade < 1 {
		grade = 1
	}
	if grade > 5 {
		grade = 5
	}
	return grade
}

// questionContext picks the context a participant would ask the target in.
func questionContext(env StudyEnvironment, target eks.ConceptID) *ontology.Context {
	if env.Oracle.Med.Treated[target] || !env.Oracle.Med.Caused[target] {
		return &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	}
	return &ontology.Context{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"}
}

func questionTemplate(ctx *ontology.Context) string {
	if ctx.Domain == "Risk" {
		return "what drugs cause %s"
	}
	return "what drugs treat %s"
}

// termForAttempt returns the surface form a participant uses: the first
// attempt mixes canonical names with colloquial variants; rephrasing moves
// toward the canonical name, as real users do when a system fails them.
func termForAttempt(env StudyEnvironment, rng *rand.Rand, target eks.ConceptID, attempt int, knowsCanonical bool) string {
	concept, _ := env.Oracle.World.Graph.Concept(target)
	r := rng.Float64()
	if !knowsCanonical {
		return colloquialTerm(env, rng, target)
	}
	if attempt >= 1 {
		// Rephrasing drifts toward official terminology, but users do not
		// reliably know the canonical name on the first retries.
		canonicalProb := 0.3 + 0.15*float64(attempt-1)
		if r < canonicalProb || len(concept.Synonyms) == 0 {
			return concept.Name
		}
		return concept.Synonyms[rng.Intn(len(concept.Synonyms))]
	}
	latent := env.Oracle.World.Latent[target]
	switch {
	case r < 0.30:
		return concept.Name
	case r < 0.45 && len(concept.Synonyms) > 0:
		return concept.Synonyms[rng.Intn(len(concept.Synonyms))]
	case r < 0.70 && len(latent) > 0:
		return latent[rng.Intn(len(latent))]
	case r < 0.85:
		return typo(rng, concept.Name)
	default:
		return "the condition my doctor calls " + concept.Name // verbose phrasing
	}
}

// colloquialTerm picks a non-canonical surface form; participants who do
// not know the official terminology cycle through these.
func colloquialTerm(env StudyEnvironment, rng *rand.Rand, target eks.ConceptID) string {
	concept, _ := env.Oracle.World.Graph.Concept(target)
	var options []string
	options = append(options, concept.Synonyms...)
	options = append(options, env.Oracle.World.Latent[target]...)
	if len(options) == 0 {
		return typo(rng, concept.Name)
	}
	return options[rng.Intn(len(options))]
}

// typo corrupts one interior letter.
func typo(rng *rand.Rand, name string) string {
	runes := []rune(name)
	if len(runes) < 5 {
		return name
	}
	pos := 1 + rng.Intn(len(runes)-2)
	if runes[pos] == ' ' {
		pos--
	}
	runes[pos] = 'a' + rune(rng.Intn(26))
	return string(runes)
}

// judgeResponse decides whether the participant is satisfied by the turn:
// either direct answers arrived, or a relaxed suggestion relevant to the
// target led to answers after picking it. many reports information
// overload (a large expanded result set).
func judgeResponse(env StudyEnvironment, conv *dialog.Conversation, resp dialog.Response, target eks.ConceptID, ctx *ontology.Context) (ok bool, extraCost int, many bool) {
	many = len(resp.Related) > 5 || len(resp.Suggestions) > 5
	if resp.Understood && len(resp.Answers) > 0 {
		return true, 0, many
	}
	if len(resp.Suggestions) > 0 {
		// The participant scans the suggestions for one they consider
		// related to their target. Going through the menu is an extra
		// interaction: under the paper's grading protocol that is not a
		// first-shot correct response, so it costs a point.
		for pos, name := range resp.Suggestions {
			for _, cid := range env.Oracle.World.Graph.LookupName(name) {
				if env.Oracle.Relevant(target, cid, ctx) {
					follow := conv.Ask(name)
					cost := 0
					if pos >= 2 {
						cost = 1 // digging deep into the menu reads as a failed shot
					}
					return len(follow.Answers) > 0, cost, many
				}
			}
		}
	}
	return false, 0, many
}

// FormatStudy renders the study result like the paper's Table 3.
func FormatStudy(res StudyResult) string {
	labels := []string{
		"1 (Very dissatisfied)", "2 (Dissatisfied)", "3 (Okay)",
		"4 (Satisfied)", "5 (Very satisfied)",
	}
	rows := make([][]string, 0, 6)
	for g := 1; g <= 5; g++ {
		rows = append(rows, []string{
			labels[g-1],
			fmt.Sprintf("%.2f%%", res.WithQR.T1.Percent(g)),
			fmt.Sprintf("%.2f%%", res.WithQR.T2.Percent(g)),
			fmt.Sprintf("%.2f%%", res.WithoutQR.T1.Percent(g)),
			fmt.Sprintf("%.2f%%", res.WithoutQR.T2.Percent(g)),
		})
	}
	rows = append(rows, []string{
		"AVG",
		fmt.Sprintf("%.2f", res.WithQR.T1.Average()),
		fmt.Sprintf("%.2f", res.WithQR.T2.Average()),
		fmt.Sprintf("%.2f", res.WithoutQR.T1.Average()),
		fmt.Sprintf("%.2f", res.WithoutQR.T2.Average()),
	})
	return FormatTable("Table 3: Watson-Assistant-style dialogue with and without QR",
		[]string{"Score", "QR T1", "QR T2", "no-QR T1", "no-QR T2"}, rows)
}
