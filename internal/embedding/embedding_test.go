package embedding

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	c := slices.Clone(a)
	c.Add(b)
	if c[0] != 5 || a[0] != 1 {
		t.Error("Add must mutate clone only")
	}
	c.Scale(2)
	if c[0] != 10 {
		t.Error("Scale wrong")
	}
	d := Vector{0, 0}
	if !d.IsZero() {
		t.Error("IsZero wrong")
	}
	d.AddScaled(3, Vector{1, 1})
	if d[0] != 3 || d[1] != 3 {
		t.Error("AddScaled wrong")
	}
}

func TestVectorDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched dims must panic")
		}
	}()
	_ = Vector{1}.Dot(Vector{1, 2})
}

func TestCosine(t *testing.T) {
	if got := Cosine(Vector{1, 0}, Vector{1, 0}); got != 1 {
		t.Errorf("cos(same) = %v", got)
	}
	if got := Cosine(Vector{1, 0}, Vector{0, 1}); got != 0 {
		t.Errorf("cos(orth) = %v", got)
	}
	if got := Cosine(Vector{1, 0}, Vector{-1, 0}); got != -1 {
		t.Errorf("cos(opposite) = %v", got)
	}
	if got := Cosine(Vector{0, 0}, Vector{1, 0}); got != 0 {
		t.Errorf("cos(zero, x) = %v, want 0", got)
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(xs, ys [4]float64) bool {
		a := Vector(xs[:])
		b := Vector(ys[:])
		for _, v := range append(slices.Clone(a), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true // dot product would overflow; out of scope
			}
		}
		c := Cosine(a, b)
		return c >= -1 && c <= 1 && Cosine(b, a) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopEigenKnownMatrix(t *testing.T) {
	// Symmetric matrix with eigenvalues 5, 2 (basis e1+e2, e1-e2):
	// [[3.5, 1.5], [1.5, 3.5]]
	m := newSparseMatrix(2)
	m.add(0, 0, 3.5)
	m.add(0, 1, 1.5)
	m.add(1, 0, 1.5)
	m.add(1, 1, 3.5)
	vals, vecs := m.topEigen(2, 100, 1)
	if len(vals) != 2 {
		t.Fatalf("got %d eigenpairs", len(vals))
	}
	if math.Abs(vals[0]-5) > 1e-6 || math.Abs(vals[1]-2) > 1e-6 {
		t.Errorf("eigenvalues = %v, want [5 2]", vals)
	}
	// First eigenvector proportional to (1,1)/sqrt2.
	if math.Abs(math.Abs(vecs[0][0])-1/math.Sqrt2) > 1e-6 {
		t.Errorf("eigenvector = %v", vecs[0])
	}
}

func TestTopEigenDegenerateRequests(t *testing.T) {
	m := newSparseMatrix(3)
	m.add(0, 0, 1)
	vals, vecs := m.topEigen(0, 10, 1)
	if vals != nil || vecs != nil {
		t.Error("k=0 must return nil")
	}
	vals, _ = m.topEigen(10, 10, 1)
	if len(vals) != 3 {
		t.Errorf("k clamped to n: got %d", len(vals))
	}
}

// trainToy builds a tiny corpus where "cat" and "dog" share contexts and
// "bond" lives in a different topic.
func trainToy(t *testing.T) *Model {
	t.Helper()
	var streams [][]string
	animalCtx := [][]string{
		{"the", "%s", "sat", "on", "the", "mat", "quietly"},
		{"a", "small", "%s", "chased", "the", "ball", "outside"},
		{"my", "%s", "ate", "the", "food", "in", "the", "bowl"},
		{"the", "%s", "slept", "near", "the", "warm", "fire"},
	}
	for _, animal := range []string{"cat", "dog"} {
		for _, tmpl := range animalCtx {
			s := make([]string, len(tmpl))
			for i, w := range tmpl {
				if w == "%s" {
					s[i] = animal
				} else {
					s[i] = w
				}
			}
			for rep := 0; rep < 4; rep++ {
				streams = append(streams, s)
			}
		}
	}
	finCtx := [][]string{
		{"the", "bond", "yield", "rose", "sharply", "in", "trading"},
		{"investors", "sold", "the", "bond", "after", "the", "report"},
		{"a", "corporate", "bond", "pays", "a", "fixed", "coupon"},
		{"the", "bond", "market", "closed", "lower", "on", "friday"},
	}
	for _, s := range finCtx {
		for rep := 0; rep < 4; rep++ {
			streams = append(streams, s)
		}
	}
	model, err := Train(streams, Config{Dim: 16, Window: 3, MinCount: 2, Iterations: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestTrainDistributionalSimilarity(t *testing.T) {
	model := trainToy(t)
	cat, ok := model.Word("cat")
	if !ok {
		t.Fatal("cat OOV")
	}
	dog, _ := model.Word("dog")
	bond, ok := model.Word("bond")
	if !ok {
		t.Fatal("bond OOV")
	}
	simAnimals := Cosine(cat, dog)
	simCross := Cosine(cat, bond)
	if simAnimals <= simCross {
		t.Errorf("cos(cat,dog)=%v must exceed cos(cat,bond)=%v", simAnimals, simCross)
	}
}

func TestTrainDeterministic(t *testing.T) {
	m1 := trainToy(t)
	m2 := trainToy(t)
	v1, _ := m1.Word("cat")
	v2, _ := m2.Word("cat")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("training is not deterministic for a fixed seed")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty corpus must fail")
	}
	// All words below min count.
	if _, err := Train([][]string{{"a", "b", "c"}}, Config{MinCount: 5}); err == nil {
		t.Error("vocabulary below min count must fail")
	}
	// Vocabulary exists but streams are single tokens: no co-occurrence.
	if _, err := Train([][]string{{"a"}, {"a"}, {"b"}, {"b"}}, Config{MinCount: 2}); err == nil {
		t.Error("no co-occurrences must fail")
	}
}

func TestModelAccessors(t *testing.T) {
	model := trainToy(t)
	if model.Dim() != 16 {
		t.Errorf("Dim = %d", model.Dim())
	}
	if _, ok := model.Word("cat"); !ok {
		t.Error("in-vocabulary lookup must succeed")
	}
	if _, ok := model.Word("zebra"); ok {
		t.Error("OOV lookup must fail")
	}
	if model.WordFrequency("the") <= model.WordFrequency("coupon") {
		t.Error("frequency of 'the' must exceed 'coupon'")
	}
	if model.WordFrequency("zebra") != 0 {
		t.Error("OOV frequency must be 0")
	}
	if !slices.IsSorted(model.words) {
		t.Fatal("vocabulary not sorted")
	}
}

func TestSIFEncoder(t *testing.T) {
	model := trainToy(t)
	refs := [][]string{{"cat"}, {"dog"}, {"bond"}, {"mat"}, {"yield"}}
	enc := NewSIFEncoder(model, 0, refs)
	v := enc.Encode([]string{"cat", "mat"})
	if v.IsZero() {
		t.Fatal("SIF embedding must be nonzero")
	}
	if !enc.Encode([]string{"zebra"}).IsZero() {
		t.Error("OOV phrase must encode to zero")
	}
	// Determinism.
	v2 := enc.Encode([]string{"cat", "mat"})
	for i := range v {
		if v[i] != v2[i] {
			t.Fatal("SIF encoding not deterministic")
		}
	}
	// SIF downweights frequent words: the embedding of {"the","bond"} should
	// be dominated by "bond", i.e. closer to bond than to the.
	vb := enc.Encode([]string{"the", "bond"})
	bond, _ := model.Word("bond")
	the, _ := model.Word("the")
	if Cosine(vb, bond) <= Cosine(vb, the) {
		t.Error("SIF must downweight the frequent word")
	}
}

func TestSIFEncoderNoReference(t *testing.T) {
	model := trainToy(t)
	enc := NewSIFEncoder(model, DefaultSIFWeight, nil)
	if enc.common != nil {
		t.Error("no reference set must skip common component")
	}
	if enc.Encode([]string{"cat"}).IsZero() {
		t.Error("encoding must still work without common component")
	}
}

func TestSIFCommonComponentRemoved(t *testing.T) {
	model := trainToy(t)
	refs := [][]string{{"cat"}, {"dog"}, {"bond"}, {"mat"}, {"yield"}, {"food"}}
	enc := NewSIFEncoder(model, 0, refs)
	if enc.common == nil {
		t.Fatal("common component not estimated")
	}
	// Encodings must be (numerically) orthogonal to the common direction.
	for _, p := range refs {
		v := enc.Encode(p)
		if v.IsZero() {
			continue
		}
		proj := math.Abs(v.Dot(enc.common)) / v.Norm()
		if proj > 1e-9 {
			t.Errorf("phrase %v retains common component: %v", p, proj)
		}
	}
}

func TestIndex(t *testing.T) {
	ix := NewIndex(2)
	ix.Add("x", Vector{1, 0})
	ix.Add("y", Vector{0, 1})
	ix.Add("xy", Vector{1, 1})
	ix.Add("zero", Vector{0, 0}) // skipped
	if ix.Len() != 3 {
		t.Errorf("Len = %d, want 3", ix.Len())
	}
	hits := ix.Nearest(Vector{1, 0.1}, 2)
	if len(hits) != 2 || hits[0].Key != "x" {
		t.Errorf("Nearest = %+v", hits)
	}
	if hits[0].Cosine < hits[1].Cosine {
		t.Error("hits not sorted")
	}
	best, ok := ix.Best(Vector{0, 2})
	if !ok || best.Key != "y" {
		t.Errorf("Best = %+v", best)
	}
	if got := ix.Nearest(Vector{0, 0}, 3); got != nil {
		t.Error("zero query must return nil")
	}
	if got := ix.Nearest(Vector{1, 0}, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	if _, ok := NewIndex(2).Best(Vector{1, 0}); ok {
		t.Error("empty index must report no best")
	}
	// k larger than index size clamps.
	if got := ix.Nearest(Vector{1, 0}, 10); len(got) != 3 {
		t.Errorf("clamped k = %d", len(got))
	}
}

func TestIndexTieBreakDeterministic(t *testing.T) {
	ix := NewIndex(2)
	ix.Add("b", Vector{2, 0})
	ix.Add("a", Vector{1, 0}) // same direction, same cosine
	hits := ix.Nearest(Vector{1, 0}, 2)
	if hits[0].Key != "a" || hits[1].Key != "b" {
		t.Errorf("tie break not by key: %+v", hits)
	}
}

func TestOrthonormalizeDegenerate(t *testing.T) {
	// Two identical rows: the second collapses and must be re-seeded.
	q := [][]float64{{1, 0, 0}, {1, 0, 0}}
	orthonormalize(q)
	if math.Abs(dot(q[0], q[1])) > 1e-9 {
		t.Error("rows not orthogonal after degenerate input")
	}
	for _, row := range q {
		if math.Abs(norm(row)-1) > 1e-9 {
			t.Error("rows not unit norm")
		}
	}
}

func TestTrainScalesToModerateCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping moderate-corpus training in -short mode")
	}
	rng := rand.New(rand.NewSource(5))
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = "w" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	var streams [][]string
	for s := 0; s < 300; s++ {
		n := 5 + rng.Intn(20)
		stream := make([]string, n)
		for i := range stream {
			stream[i] = vocab[rng.Intn(len(vocab))]
		}
		streams = append(streams, stream)
	}
	model, err := Train(streams, Config{Dim: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.words) < 100 {
		t.Errorf("vocab size = %d", len(model.words))
	}
}
