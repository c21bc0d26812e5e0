package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/dialog"
	"medrelax/internal/engine"
)

// The shapes the relax bodies had while encoding/json wrote them, kept here
// only as the oracle the appending encoder must match byte for byte: a relax
// answer was this map, an error this map, a batch item this struct around
// either, and every response went through json.Encoder.Encode.

func oracleAnswer(term, qctx string, results []RelaxResult) map[string]any {
	return map[string]any{"term": term, "context": qctx, "results": results}
}

func oracleError(msg string) map[string]string { return map[string]string{"error": msg} }

type oracleItem struct {
	Status int `json:"status"`
	Body   any `json:"body"`
}

func oracleBatch(items []oracleItem) map[string]any { return map[string]any{"items": items} }

// oracleBytes is what writeJSON sent for v: its encoding and newline, or
// nothing at all when encoding/json refused the value.
func oracleBytes(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// cannedBackend answers a term listed in answers with that response and
// every other term with results.
type cannedBackend struct {
	results []RelaxResult
	answers map[string]Response
}

func (c *cannedBackend) RelaxBatch(_ context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	for i, req := range reqs {
		resp, ok := c.answers[req.Term]
		if !ok {
			resp = Response{Results: c.results}
		}
		out[i] = resp
	}
	return out
}

func (c *cannedBackend) Terms(int) []string { return nil }
func (c *cannedBackend) NewConversation() (*dialog.Conversation, error) {
	return nil, errors.New("no conversations")
}
func (c *cannedBackend) Stats() map[string]any { return nil }

type flaky struct{}

func (flaky) Error() string   { return "flaky <backend> & co" }
func (flaky) Transient() bool { return true }

// Error answers the batch tests hand out by term, with the status each maps to.
var cannedErrors = map[string]struct {
	err    error
	status int
}{
	"unknown <term>": {fmt.Errorf("%w: \"unknown <term>\"", core.ErrUnknownTerm), http.StatusNotFound},
	"late":           {fmt.Errorf("relax: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
	"bad context":    {fmt.Errorf("%w: \"a-b\"\x01", core.ErrBadContext), http.StatusBadRequest},
	"flaky":          {flaky{}, http.StatusServiceUnavailable},
}

func newCanned(results []RelaxResult) *cannedBackend {
	c := &cannedBackend{results: results, answers: map[string]Response{}}
	for term, e := range cannedErrors {
		c.answers[term] = Response{Err: e.err}
	}
	return c
}

// getBody serves GET /relax?term=&context=&k=3 and returns the status and body.
func getBody(h http.Handler, term, qctx string) (int, []byte) {
	v := url.Values{"term": {term}, "context": {qctx}, "k": {"3"}}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/relax?"+v.Encode(), nil))
	return rec.Code, rec.Body.Bytes()
}

// checkGet holds one GET /relax body to the oracle.
func checkGet(t *testing.T, term, qctx string, results []RelaxResult) {
	t.Helper()
	h := New(newCanned(results)).Handler()
	status, got := getBody(h, term, qctx)
	want, wantStatus := oracleBytes(oracleAnswer(term, qctx, results)), http.StatusOK
	if term == "" {
		want, wantStatus = oracleBytes(oracleError("missing term parameter")), http.StatusBadRequest
	}
	if status != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("GET term %q context %q: status %d, body\n%q\nwant %d,\n%q", term, qctx, status, got, wantStatus, want)
	}
}

// checkBatch holds one POST /relax/batch body to the oracle: the queries
// given, then one of each error item.
func checkBatch(t *testing.T, queries []Request, results []RelaxResult) {
	t.Helper()
	queries = append(queries, Request{Term: "", K: 2}, Request{Term: "x", K: 5000})
	for term := range cannedErrors {
		queries = append(queries, Request{Term: term, Context: "Indication-hasFinding-Finding", K: 4})
	}
	payload, err := json.Marshal(BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle sees the queries as the server decodes them (a string with
	// invalid UTF-8 does not survive json.Marshal unchanged).
	decoded, _, msg := DecodeBatch(bytes.NewReader(payload))
	if msg != "" {
		t.Fatal(msg)
	}
	items := make([]oracleItem, len(decoded.Queries))
	for i, q := range decoded.Queries {
		e, failed := cannedErrors[q.Term]
		switch {
		case q.Term == "":
			items[i] = oracleItem{http.StatusBadRequest, oracleError("missing term parameter")}
		case q.K > 1000:
			items[i] = oracleItem{http.StatusBadRequest, oracleError("k must be an integer in [1, 1000]")}
		case failed:
			items[i] = oracleItem{e.status, oracleError(e.err.Error())}
		default:
			items[i] = oracleItem{http.StatusOK, oracleAnswer(q.Term, q.Context, results)}
		}
	}
	h := New(newCanned(results)).Handler()
	for _, path := range []string{"/relax/batch", "/relax/batch?explain=true"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)))
		if want := oracleBytes(oracleBatch(items)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("POST %s: status %d, body\n%q\nwant\n%q", path, rec.Code, rec.Body.Bytes(), want)
		}
	}
}

// Strings encoding/json escapes, each in its own way.
var escapeCases = []string{
	`<>&"\`,
	"\x00\x01\x08\x0c\x0a\x0d\x09\x1f\x7f",
	"bad \xff\xfe utf-8 \xc3",
	"line\xe2\x80\xa8para\xe2\x80\xa9graph",
	"caf\xc3\xa9 \xe6\xbc\xa2 \xf0\x9f\x99\x82",
	"",
}

// Floats around encoding/json's 'f'/'e' switch and at the edges of float64.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21, 123456789e13,
	5e-324, 1e-310, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	0.1, 1.0 / 3, 0.5403023058681398, 1e-100, 1.5e300,
}

func explained(name string, weight float64) *engine.Explain {
	return &engine.Explain{
		Source: "primary", Query: name, Subsumer: "clinical finding",
		Subsumers:       []string{"clinical finding", name},
		Generalizations: 1, Specializations: 2, PathWeight: weight,
		Edges: []engine.ExplainEdge{
			{From: name, To: "clinical finding", Direction: "generalization", Dist: 1},
			{From: "clinical finding", To: "fever", Direction: "specialization", Dist: 3},
		},
	}
}

func TestRelaxBodyMatchesEncodingJSON(t *testing.T) {
	var floats []RelaxResult
	for i, f := range floatCases {
		floats = append(floats, RelaxResult{Concept: fmt.Sprint("c", i), Score: f, Hops: i - 3,
			Instances: []string{"i"}, Provenance: &engine.Provenance{Explain: explained("q", f)}})
	}
	cases := []struct {
		name, term, qctx string
		results          []RelaxResult
	}{
		{"nil results", "fever", "", nil},
		{"empty results", "fever", "Indication-hasFinding-Finding", []RelaxResult{}},
		{"nil and empty instances", "fever", "", []RelaxResult{
			{Concept: "a", Score: 0.5, Hops: 1},
			{Concept: "b", Score: 0.25, Hops: 2, Instances: []string{}},
		}},
		{"floats", "fever", "", floats},
		{"sources without explain", "fever", "", []RelaxResult{
			{Concept: "a", Score: 1, Instances: []string{"x"}, Provenance: &engine.Provenance{Sources: []string{"primary", "variant"}}},
			{Concept: "b", Score: 1, Instances: []string{"y"}, Provenance: &engine.Provenance{Sources: []string{}}},
		}},
		{"explain", "fever", "Drug-treat-Indication", []RelaxResult{
			{Concept: "a", Score: 0.75, Hops: 2, Instances: []string{"x"}, Provenance: &engine.Provenance{Sources: []string{"primary"}, Explain: explained("fever", 0.75)}},
			{Concept: "b", Score: 0.5, Hops: 0, Instances: []string{"y"}, Provenance: &engine.Provenance{Explain: &engine.Explain{Source: "variant", Subsumers: []string{}}}},
			{Concept: "c", Score: 0.5, Hops: 0, Instances: []string{"z"}, Provenance: &engine.Provenance{Explain: &engine.Explain{Edges: []engine.ExplainEdge{}}}},
		}},
		{"a non-finite score refuses the body", "fever", "", []RelaxResult{{Concept: "a", Score: math.NaN()}}},
		{"missing term", "", "", nil},
	}
	for i, s := range escapeCases {
		cases = append(cases, struct {
			name, term, qctx string
			results          []RelaxResult
		}{fmt.Sprint("escapes ", i), "t" + s, s, []RelaxResult{{
			Concept: s, Score: 0.5, Hops: 1, Instances: []string{s, "plain"}, Provenance: &engine.Provenance{Sources: []string{s},
				Explain: &engine.Explain{Source: s, Query: s, Subsumer: s, Subsumers: []string{s},
					Edges: []engine.ExplainEdge{{From: s, To: s, Direction: s, Dist: 1}}}},
		}}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkGet(t, c.term, c.qctx, c.results)
			checkBatch(t, []Request{{Term: c.term, Context: c.qctx, K: 3}, {Term: "fever", K: 7}}, c.results)
		})
	}
}

// TestBackendErrorBodiesMatchEncodingJSON pins a GET error body, escapes
// included, and the status it maps to.
func TestBackendErrorBodiesMatchEncodingJSON(t *testing.T) {
	h := New(newCanned(nil)).Handler()
	for term, e := range cannedErrors {
		status, got := getBody(h, term, "")
		if want := oracleBytes(oracleError(e.err.Error())); status != e.status || !bytes.Equal(got, want) {
			t.Errorf("GET %q: status %d, body %q; want %d, %q", term, status, got, e.status, want)
		}
	}
}

// TestWriteBatchCopiesBodiesVerbatim pins the envelope the router merges
// replica bodies through: what encoding/json wrote for the items with their
// bodies as raw messages, a missing body as null.
func TestWriteBatchCopiesBodiesVerbatim(t *testing.T) {
	answer := bytes.TrimSuffix(oracleBytes(oracleAnswer("t<", escapeCases[2], []RelaxResult{{Concept: escapeCases[3], Score: 1e-7}})), []byte("\n"))
	items := []BatchItemResponse{
		{Status: http.StatusOK, Body: answer},
		{Status: http.StatusNotFound, Body: AppendError(nil, escapeCases[0])},
		{Status: http.StatusServiceUnavailable},
	}
	rec := httptest.NewRecorder()
	WriteBatch(rec, items)
	if want := oracleBytes(map[string]any{"items": items}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("WriteBatch wrote\n%q\nwant\n%q", rec.Body.Bytes(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// FuzzRelaxBody holds GET /relax and POST /relax/batch bodies built from
// arbitrary names, floats and shapes to the oracle. shape's bits pick nil or
// empty slices, sources, explain, its subsumers and its edges.
func FuzzRelaxBody(f *testing.F) {
	for i, s := range escapeCases {
		f.Add("t"+s, s, s, floatCases[i], floatCases[len(floatCases)-1-i], i, uint8(i*37))
	}
	f.Add("fever", "", "kidney disease", 0.5, 1e-7, 2, uint8(0xff))
	f.Fuzz(func(t *testing.T, term, qctx, name string, score, weight float64, hops int, shape uint8) {
		if _, special := cannedErrors[term]; special {
			return
		}
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		var results []RelaxResult
		if !bit(0) {
			r := RelaxResult{Concept: name, Score: score, Hops: hops}
			if bit(1) {
				r.Instances = []string{name, term}
			}
			if bit(2) || bit(3) {
				r.Provenance = &engine.Provenance{}
			}
			if bit(2) {
				r.Sources = []string{name}
			}
			if bit(3) {
				r.Explain = &engine.Explain{Source: name, Query: term, Subsumer: qctx, Generalizations: hops, PathWeight: weight}
				if bit(4) {
					r.Explain.Subsumers = []string{qctx, name}
				}
				if bit(5) {
					r.Explain.Edges = []engine.ExplainEdge{{From: term, To: name, Direction: qctx, Dist: -hops}}
				}
			}
			results = []RelaxResult{r, {Concept: term, Score: weight, Instances: []string{}}}
		} else if bit(6) {
			results = []RelaxResult{}
		}
		checkGet(t, term, qctx, results)
		checkBatch(t, []Request{{Term: term, Context: qctx, K: 3}}, results)
	})
}
