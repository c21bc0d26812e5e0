package corpus

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func testCorpus() *Corpus {
	return New([]Document{
		{
			ID:    "d1",
			Title: "Amoxicillin",
			Sections: []Section{
				{Label: "Indication-hasFinding-Finding",
					Text: "Indicated for bronchitis and pain in throat. Bronchitis responds well."},
				{Label: "Risk-hasFinding-Finding",
					Text: "May cause headache or renal impairment."},
			},
		},
		{
			ID:    "d2",
			Title: "Ibuprofen",
			Sections: []Section{
				{Label: "Indication-hasFinding-Finding",
					Text: "Treats headache, craniofacial pain, and fever."},
				{Label: "Risk-hasFinding-Finding",
					Text: "Risk of renal impairment with prolonged use. Renal impairment is dose dependent."},
				{Label: "", Text: "General notes mention fever once."},
			},
		},
	})
}

func TestCountPhrasesPerLabel(t *testing.T) {
	c := testCorpus()
	stats := c.CountPhrases([]string{
		"bronchitis", "headache", "renal impairment", "fever", "pain in throat",
		"craniofacial pain", "pertussis",
	})

	br := stats["bronchitis"]
	if br.TF["Indication-hasFinding-Finding"] != 2 || br.TotalTF != 2 || br.DF != 1 {
		t.Errorf("bronchitis stats = %+v", br)
	}
	ri := stats["renal impairment"]
	if ri.TF["Risk-hasFinding-Finding"] != 3 || ri.TotalTF != 3 || ri.DF != 2 {
		t.Errorf("renal impairment stats = %+v", ri)
	}
	hd := stats["headache"]
	if hd.TotalTF != 2 || hd.DF != 2 {
		t.Errorf("headache stats = %+v", hd)
	}
	if hd.TF["Indication-hasFinding-Finding"] != 1 || hd.TF["Risk-hasFinding-Finding"] != 1 {
		t.Errorf("headache per-label stats = %+v", hd.TF)
	}
	fv := stats["fever"]
	if fv.TotalTF != 2 || fv.TF[""] != 1 {
		t.Errorf("fever stats = %+v", fv)
	}
	if st := stats["pertussis"]; st.TotalTF != 0 || st.DF != 0 {
		t.Errorf("pertussis must have zero stats, got %+v", st)
	}
}

func TestLongestMatchWins(t *testing.T) {
	c := New([]Document{{ID: "d", Sections: []Section{
		{Label: "x", Text: "pain in throat but also pain elsewhere"},
	}}})
	stats := c.CountPhrases([]string{"pain", "pain in throat"})
	if got := stats["pain in throat"].TotalTF; got != 1 {
		t.Errorf("pain in throat TF = %d, want 1", got)
	}
	// "pain" inside "pain in throat" must not be double counted; the
	// standalone "pain" later in the sentence is counted.
	if got := stats["pain"].TotalTF; got != 1 {
		t.Errorf("pain TF = %d, want 1", got)
	}
}

func TestPhraseNormalizationInKeys(t *testing.T) {
	c := New([]Document{{ID: "d", Sections: []Section{
		{Label: "", Text: "Chronic Kidney Disease is noted."},
	}}})
	stats := c.CountPhrases([]string{"  Chronic   kidney DISEASE "})
	st, ok := stats["chronic kidney disease"]
	if !ok || st.TotalTF != 1 {
		t.Errorf("normalized key lookup failed: %+v", stats)
	}
}

func TestCountPhrasesEmpty(t *testing.T) {
	c := testCorpus()
	if got := c.CountPhrases(nil); len(got) != 0 {
		t.Errorf("no phrases must give empty stats, got %v", got)
	}
	if got := c.CountPhrases([]string{"", "  "}); len(got) != 0 {
		t.Errorf("blank phrases must be dropped, got %v", got)
	}
}

func TestIDF(t *testing.T) {
	// Rare term gets higher weight than common term.
	if IDF(1, 100) <= IDF(50, 100) {
		t.Error("IDF must decrease with df")
	}
	// Term in every document still positive.
	if IDF(100, 100) <= 0 {
		t.Error("IDF must stay positive")
	}
	// df=0 well defined.
	if math.IsInf(IDF(0, 100), 0) || math.IsNaN(IDF(0, 100)) {
		t.Error("IDF(0, n) must be finite")
	}
}

func TestEmptyCorpus(t *testing.T) {
	c := New(nil)
	if c.DocCount() != 0 || c.TokenCount() != 0 {
		t.Error("empty corpus counts must be zero")
	}
}

func TestLabelsAndStreams(t *testing.T) {
	c := testCorpus()
	streams := c.TokenStreams()
	if len(streams) != 5 {
		t.Errorf("TokenStreams count = %d, want 5", len(streams))
	}
	if c.TokenCount() < 30 {
		t.Errorf("TokenCount = %d suspiciously small", c.TokenCount())
	}
	if c.DocCount() != 2 {
		t.Error("document counts wrong")
	}
}

func TestCountPhrasesNShardEquivalence(t *testing.T) {
	// A corpus with many documents, repeated phrases and cross-label
	// mentions: the sharded scan must agree with the serial scan exactly,
	// for any worker count including more workers than documents.
	var docs []Document
	for i := 0; i < 23; i++ {
		docs = append(docs, Document{
			ID: fmt.Sprintf("d%d", i),
			Sections: []Section{
				{Label: "A", Text: "fever and severe headache with fever again"},
				{Label: "B", Text: "headache headache sore throat"},
				{Label: "", Text: "sore throat fever"},
			},
		})
	}
	c := New(docs)
	phrases := []string{"fever", "headache", "sore throat", "severe headache", "absent phrase"}
	want := c.CountPhrases(phrases)
	for _, workers := range []int{2, 3, 7, 16, 64} {
		got := c.CountPhrasesN(phrases, workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: sharded stats differ from serial", workers)
		}
	}
}
