package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"medrelax/internal/server"
	"medrelax/internal/trace"
)

var errNoReplicas = errors.New("replica set is empty")

// scatterShardBuckets sizes the fan-out histogram: how many shards one
// batch touched.
var scatterShardBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// scatterItemBuckets sizes the per-shard sub-batch histogram.
var scatterItemBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// handleBatch is the scatter-gather path: split a ≤MaxBatchItems batch
// across shards by tenant/term ownership, fan out concurrently with
// per-shard deadlines, and merge positional outcomes. Request-level
// validation is the replica's own (server.DecodeBatch), so a malformed batch
// fails identically whether it meets one replica or the router. Each item's
// body bytes travel untouched from replica to client through the server's
// own batch envelope (server.WriteBatch), which is what makes the merged
// response byte-identical to a single-replica run.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	typed, status, msg := server.DecodeBatch(r.Body)
	if msg != "" {
		server.WriteError(w, status, msg)
		return
	}

	tenant := tenantOf(r)
	// Group item positions by owning replica. Ring order plus health-aware
	// fallback means a down shard's items flow to the next owner rather
	// than failing.
	type shard struct {
		indices []int
		items   []server.Request
	}
	shards := map[string]*shard{}
	for i, q := range typed.Queries {
		cands := rt.candidates(routingKey(tenant, q.Term))
		if len(cands) == 0 {
			writeUnavailable(w, errNoReplicas)
			return
		}
		rep := cands[0]
		s := shards[rep]
		if s == nil {
			s = &shard{}
			shards[rep] = s
		}
		s.indices = append(s.indices, i)
		s.items = append(s.items, q)
	}
	rt.reg.HistogramWith("kbrouter_scatter_shards", "shards touched per batch", "", scatterShardBuckets).
		Observe(float64(len(shards)))

	// Fan out with a per-shard deadline; merged item responses land at
	// their original positions.
	items := make([]server.BatchItemResponse, len(typed.Queries))
	// Deterministic shard order keeps retries and metrics stable in tests.
	order := make([]string, 0, len(shards))
	for rep := range shards {
		order = append(order, rep)
	}
	sort.Strings(order)
	var wg sync.WaitGroup
	for _, rep := range order {
		s := shards[rep]
		rt.reg.HistogramWith("kbrouter_scatter_items", "sub-batch size per shard request", "", scatterItemBuckets).
			Observe(float64(len(s.items)))
		wg.Add(1)
		go func(rep string, s *shard) {
			defer wg.Done()
			rt.scatterOne(r, rep, s.indices, s.items, items)
		}(rep, s)
	}
	wg.Wait()
	server.WriteBatch(w, items)
}

// scatterOne sends one shard's sub-batch and writes its outcomes into the
// positional result slice. A shard that stays unreachable (or sheds past
// the retry budget) resolves to per-item 503s — the batch never fails
// wholesale because one replica did.
func (rt *Router) scatterOne(r *http.Request, rep string, indices []int, subItems []server.Request, out []server.BatchItemResponse) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	outcome := "ok"
	if parent := trace.FromContext(ctx); parent != nil {
		sp := parent.StartChild("router.shard")
		sp.SetTag("replica", rep)
		sp.SetTag("items", strconv.Itoa(len(subItems)))
		ctx = trace.ContextWithSpan(ctx, sp)
		defer func() {
			sp.SetTag("outcome", outcome)
			sp.End()
		}()
	}
	body, err := json.Marshal(server.BatchRequest{Queries: subItems})
	if err != nil {
		outcome = "encode_error"
		rt.failShard(out, indices, "encoding sub-batch: "+err.Error())
		return
	}
	// The shard key routes retries back through the same candidate chain
	// the items were placed with.
	key := routingKey(tenantOf(r), subItems[0].Term)
	status, _, respBody, err := rt.forwardReq(ctx, http.MethodPost, r.URL.RequestURI(), r.Header, body, key)
	if err != nil {
		outcome = "unreachable"
		rt.failShard(out, indices, "replica unreachable: "+err.Error())
		return
	}
	if status != http.StatusOK {
		outcome = "bad_status"
		rt.failShard(out, indices, fmt.Sprintf("replica answered status %d", status))
		return
	}
	var shardResp struct {
		Items []server.BatchItemResponse `json:"items"`
	}
	if err := json.Unmarshal(respBody, &shardResp); err != nil || len(shardResp.Items) != len(indices) {
		outcome = "malformed_response"
		rt.failShard(out, indices, "malformed shard response")
		return
	}
	for j, idx := range indices {
		out[idx] = shardResp.Items[j]
	}
}

// failShard marks every item of a failed shard as a retryable 503 — the
// shed shape clients already know how to back off from.
func (rt *Router) failShard(out []server.BatchItemResponse, indices []int, reason string) {
	rt.reg.Counter("kbrouter_scatter_shard_failures_total", "scatter shard requests that failed wholesale", "").Inc()
	body := server.AppendError(nil, "shard unavailable: "+reason)
	for _, idx := range indices {
		out[idx] = server.BatchItemResponse{Status: http.StatusServiceUnavailable, Body: body}
	}
}
