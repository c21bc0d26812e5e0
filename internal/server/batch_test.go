package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

func postBatch(t *testing.T, base, body string) (int, []BatchItemResponse) {
	t.Helper()
	resp, err := http.Post(base+"/relax/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Items []BatchItemResponse `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp.StatusCode, out.Items
}

// getRaw fetches a sequential /relax and returns its status and exact body
// bytes (trailing newline trimmed — the encoder appends one per response).
func getRaw(t *testing.T, rawURL string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, bytes.TrimRight(body, "\n")
}

// TestBatchMatchesSequentialBytes pins the batch contract: every item's
// status and body must be byte-identical to what the same query gets from
// a sequential GET /relax — successes, unknown terms, bad contexts, and
// parameter validation alike.
func TestBatchMatchesSequentialBytes(t *testing.T) {
	ts := newTestServer(t)
	queries := []struct {
		term, qctx string
		k          int
	}{
		{"pyelectasia", "not a context!!", 5}, // fails alone, below pinned to its text
		{"pyelectasia", "", 5},
		{"fever", "", 3},
		{"zzqx unknown", "", 5},
		{"fever", "bad-ctx-shape-x-y", 2},
		{"", "", 5}, // missing term: validation must match too
		{"pyelectasia", "", 5},
	}
	var items []map[string]any
	for _, q := range queries {
		items = append(items, map[string]any{"term": q.term, "context": q.qctx, "k": q.k})
	}
	reqBody, _ := json.Marshal(map[string]any{"queries": items})
	code, got := postBatch(t, ts.URL, string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	if len(got) != len(queries) {
		t.Fatalf("batch returned %d items for %d queries", len(got), len(queries))
	}
	for i, q := range queries {
		v := url.Values{}
		if q.term != "" {
			v.Set("term", q.term)
		}
		if q.qctx != "" {
			v.Set("context", q.qctx)
		}
		v.Set("k", fmt.Sprint(q.k))
		wantStatus, wantBody := getRaw(t, ts.URL+"/relax?"+v.Encode())
		if got[i].Status != wantStatus {
			t.Errorf("item %d (%+v): status %d, sequential %d", i, q, got[i].Status, wantStatus)
		}
		if !bytes.Equal(got[i].Body, wantBody) {
			t.Errorf("item %d (%+v): body diverged from sequential /relax:\nbatch: %s\nseq:   %s",
				i, q, got[i].Body, wantBody)
		}
	}
	const badContext = `{"error":"invalid query context: ontology: malformed context \"not a context!!\" (want Domain-Relationship-Range)"}`
	if got[0].Status != http.StatusBadRequest || string(got[0].Body) != badContext {
		t.Errorf("malformed-context item: status %d, body %s; want 400, %s", got[0].Status, got[0].Body, badContext)
	}
}

func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := postBatch(t, ts.URL, `{"queries":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", code)
	}
	if code, _ := postBatch(t, ts.URL, `not json`); code != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", code)
	}
	var big []map[string]any
	for i := 0; i <= MaxBatchItems; i++ {
		big = append(big, map[string]any{"term": "fever"})
	}
	body, _ := json.Marshal(map[string]any{"queries": big})
	if code, _ := postBatch(t, ts.URL, string(body)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch = %d, want 413", code)
	}
}

// TestBatchDefaultK checks the k default (10) and the k=0 equivalence with
// an unset k, mirroring GET /relax without a k parameter.
func TestBatchDefaultK(t *testing.T) {
	ts := newTestServer(t)
	code, got := postBatch(t, ts.URL, `{"queries":[{"term":"pyelectasia"}]}`)
	if code != http.StatusOK || len(got) != 1 {
		t.Fatalf("batch = %d, %d items", code, len(got))
	}
	wantStatus, wantBody := getRaw(t, ts.URL+"/relax?term=pyelectasia")
	if got[0].Status != wantStatus || !bytes.Equal(got[0].Body, wantBody) {
		t.Errorf("default-k item diverged:\nbatch: %s\nseq:   %s", got[0].Body, wantBody)
	}
}
