package medrelax

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCitedResultsExist fails when README or EXPERIMENTS cites a file under
// results/ that the tree does not hold. The literal placeholder prNN (how a
// bench pairs file is named in prose) is not a citation.
func TestCitedResultsExist(t *testing.T) {
	cite := regexp.MustCompile(`results/[A-Za-z0-9_.-]+`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := cite.FindAllString(string(text), -1)
		if len(cited) == 0 {
			t.Errorf("%s cites no results file; the pattern no longer matches how it cites them", doc)
		}
		for _, path := range cited {
			path = strings.TrimRight(path, ".")
			if strings.Contains(path, "prNN") {
				continue
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, path)
			}
		}
	}
}
