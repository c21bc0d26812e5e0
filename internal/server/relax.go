package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"medrelax/internal/core"
)

// validateRelaxParams applies the shared /relax parameter contract: term
// required, k in [1, 1000] defaulting to 10. The returned message is the
// exact 400 body text, so single and batch paths fail identically.
func validateRelaxParams(term string, k int, kSet bool) (int, string) {
	if term == "" {
		return 0, "missing term parameter"
	}
	if !kSet {
		return 10, ""
	}
	if k < 1 || k > 1000 {
		return 0, "k must be an integer in [1, 1000]"
	}
	return k, ""
}

// explainWanted reports whether the request opted into explain mode
// (`explain=true` or `explain=1`). Any other value — including absence —
// is the classic mode, whose responses stay byte-identical to servers that
// predate the parameter.
func explainWanted(q url.Values) bool {
	v := q.Get("explain")
	return v == "true" || v == "1"
}

// noStoreWanted reports whether the request opted out of result caches with
// `Cache-Control: no-store` — no read, no write. Benchmark harnesses use it to
// measure the uncached path on a warm server without evicting real entries.
func noStoreWanted(h http.Header) bool {
	cc := h.Get("Cache-Control")
	return cc != "" && strings.Contains(strings.ToLower(cc), "no-store")
}

func (s *Server) handleRelax(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := Request{Term: q.Get("term"), Context: q.Get("context"), Explain: explainWanted(q), NoStore: noStoreWanted(r.Header)}
	kSet := false
	if ks := q.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "k must be an integer in [1, 1000]")
			return
		}
		req.K, kSet = v, true
	}
	k, msg := validateRelaxParams(req.Term, req.K, kSet)
	if msg != "" {
		WriteError(w, http.StatusBadRequest, msg)
		return
	}
	req.K = k
	// No lock: the relaxation pipeline is safe for concurrent use, so the
	// hot path serves requests fully in parallel.
	resp := s.backend.RelaxBatch(r.Context(), []Request{req})[0]
	if resp.Err != nil {
		status := statusForError(resp.Err)
		if status == http.StatusServiceUnavailable {
			// A transient backend fault is retryable: tell the client
			// when, the same way admission-control sheds do.
			w.Header().Set("Retry-After", "1")
		}
		WriteError(w, status, resp.Err.Error())
		return
	}
	e := newEncoder()
	e.answer(req.Term, req.Context, resp.Results)
	e.b = append(e.b, '\n')
	e.send(w, http.StatusOK)
}

// BatchRequest is the POST /relax/batch request body.
type BatchRequest struct {
	Queries []Request `json:"queries"`
}

// BatchItemResponse is one item of a POST /relax/batch response as it
// travels: Status is the HTTP status the same query would have gotten from
// GET /relax, Body the exact bytes of the body it would have gotten, so
// success items are byte-identical to sequential /relax bodies. The router
// decodes replica responses into it and merges them through WriteBatch.
type BatchItemResponse struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// DecodeBatch reads a POST /relax/batch body and applies the request-level
// contract: valid JSON, between one and MaxBatchItems queries. On failure it
// returns the status and the exact error text to answer with — the router
// decodes through it too, so a malformed batch fails identically whether it
// meets one replica or the router.
func DecodeBatch(body io.Reader) (req BatchRequest, status int, msg string) {
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, http.StatusBadRequest, "invalid JSON: " + err.Error()
	}
	if len(req.Queries) == 0 {
		return req, http.StatusBadRequest, "queries must be a non-empty array"
	}
	if len(req.Queries) > MaxBatchItems {
		return req, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d exceeds limit of %d", len(req.Queries), MaxBatchItems)
	}
	return req, 0, ""
}

// handleRelaxBatch answers many relax queries in one request through the
// backend's shared-scratch batch path. The response is positional: item i
// answers query i, failures included, so one unknown term does not fail
// the batch. The request deadline bounds the whole batch.
func (s *Server) handleRelaxBatch(w http.ResponseWriter, r *http.Request) {
	req, status, msg := DecodeBatch(r.Body)
	if msg != "" {
		WriteError(w, status, msg)
		return
	}
	explain, noStore := explainWanted(r.URL.Query()), noStoreWanted(r.Header)
	// Validate every item first; only the valid ones reach the backend, and
	// invalid[i] keeps the 400 text of an item that did not.
	invalid := make([]string, len(req.Queries))
	valid := make([]Request, 0, len(req.Queries))
	for i, q := range req.Queries {
		k, msg := validateRelaxParams(q.Term, q.K, q.K != 0)
		if msg != "" {
			invalid[i] = msg
			continue
		}
		q.K, q.Explain, q.NoStore = k, explain, noStore
		valid = append(valid, q)
	}
	var outs []Response
	if len(valid) > 0 {
		outs = s.backend.RelaxBatch(r.Context(), valid)
	}
	e := newEncoder()
	j := 0 // the next valid item's answer
	for i := range req.Queries {
		switch {
		case invalid[i] != "":
			e.item(i, http.StatusBadRequest)
			e.b = AppendError(e.b, invalid[i])
		case outs[j].Err != nil:
			e.item(i, statusForError(outs[j].Err))
			e.b = AppendError(e.b, outs[j].Err.Error())
			j++
		default:
			e.item(i, http.StatusOK)
			e.answer(valid[j].Term, valid[j].Context, outs[j].Results)
			j++
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, batchEnd...)
	e.send(w, http.StatusOK)
}

// transient is the marker interface for failures expected to clear on
// retry (injected faults, flaky downstream I/O). Declared structurally so
// error producers don't need to import this package.
type transient interface{ Transient() bool }

// statusForError maps backend failures onto HTTP semantics via the typed
// errors from core: an unmappable term is the caller's 404, a malformed
// context their 400, an expired deadline the gateway's 504, a transient
// backend fault a retryable 503, and anything else an internal 500.
func statusForError(err error) int {
	var tr transient
	switch {
	case errors.Is(err, core.ErrUnknownTerm):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadContext):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &tr) && tr.Transient():
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
