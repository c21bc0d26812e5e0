package corpus

import (
	"strings"
	"testing"
)

func FuzzCountPhrases(f *testing.F) {
	f.Add("bronchitis and pain in throat", "pain in throat", "pain")
	f.Add("", "", "")
	f.Add("a a a a a", "a", "a a")
	f.Add("Chronic Kidney Disease is noted.", "  Chronic   kidney DISEASE ", "kidney")
	f.Add("ΔFOSB overexpression, béta-blocker use", "δfosb overexpression", "Béta-Blocker")
	f.Add("x' --y 'z", "x", "-y z'")
	f.Fuzz(func(t *testing.T, text, p1, p2 string) {
		if len(text) > 2048 || len(p1) > 64 || len(p2) > 64 {
			return
		}
		c := New([]Document{{ID: "d", Sections: []Section{{Label: "L", Text: text}}}})
		// Duplicate, re-cased, padded and blank phrases beside the drawn ones.
		phrases := []string{p1, p2, p1, strings.ToUpper(p2), " " + p1 + "!", "", " "}
		stats := countByKey(c, phrases...)
		if want := c.oracleCountPhrases(phrases); !sameStats(stats, want) {
			t.Fatalf("phrases %q: counted %v, the tokenize-and-join oracle %v", phrases, stats, want)
		}
		total := 0
		for key, st := range stats {
			if st.TotalTF < 0 || st.DF < 0 || st.DF > 1 {
				t.Fatalf("stats out of range for %q: %+v", key, st)
			}
			if (st.TF == nil) != (st.TotalTF == 0) {
				t.Fatalf("%q: TF %v with total %d; nil exactly when the phrase never occurs", key, st.TF, st.TotalTF)
			}
			labelSum := 0
			for _, n := range st.TF {
				labelSum += n
			}
			if labelSum != st.TotalTF {
				t.Fatalf("per-label sum %d != total %d for %q", labelSum, st.TotalTF, key)
			}
			total += st.TotalTF
		}
		// Greedy non-overlapping matches can never exceed the token count.
		if total > tokenCount(c) {
			t.Fatalf("matched %d phrases in %d tokens", total, tokenCount(c))
		}
	})
}
