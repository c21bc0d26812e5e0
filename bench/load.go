package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the scheduler's view of time, so a test can drive the open loop
// with a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { preciseSleep(d) }

// pacedSample is one open-loop round trip: how late the generator sent it,
// how long the caller waited counted from when it was due — so a stall
// charges every request queued behind it — and how many of its operations
// came back correct.
type pacedSample struct {
	late    time.Duration
	latency time.Duration
	ok      int
}

// runPaced is the open loop: round trip i is due at due[i] after the start
// whether or not earlier ones have returned. workers bounds the connections,
// not the schedule: when all are busy the next request waits, and its
// latency says so.
func runPaced(clk clock, workers int, due []time.Duration, do func(worker, i int) int) []pacedSample {
	start := clk.Now()
	samples := make([]pacedSample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				if wait := due[i] - clk.Now().Sub(start); wait > 0 {
					clk.Sleep(wait)
				}
				sent := clk.Now().Sub(start)
				ok := do(w, i)
				samples[i] = pacedSample{late: sent - due[i], latency: clk.Now().Sub(start) - due[i], ok: ok}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// closedSample is one closed-loop round trip.
type closedSample struct {
	completion
	latency time.Duration
}

// runClosed is the closed loop: every worker sends its next round trip as
// soon as the previous one returns, until more(i, elapsed) says stop.
func runClosed(workers int, more func(i int, elapsed time.Duration) bool, do func(worker, i int) int) []closedSample {
	start := time.Now()
	perWorker := make([][]closedSample, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				sent := time.Since(start)
				if !more(i, sent) {
					return
				}
				ok := do(w, i)
				done := time.Since(start)
				perWorker[w] = append(perWorker[w], closedSample{completion{done: done, ops: ok}, done - sent})
			}
		}(w)
	}
	wg.Wait()
	var all []closedSample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	return all
}

// connections is min(nproc, 4): enough to keep every core of a small host
// busy, few enough that the client is not the thing being measured.
func connections() int { return min(runtime.NumCPU(), 4) }

// refBody is what the reference — the live traversal, no accelerators, no
// cache — answered for one request.
type refBody struct {
	status int
	body   []byte
}

// client drives one front address over keep-alive connections, one per
// worker, with no retries: a failure is counted, not hidden.
type client struct {
	base  string
	conns []*http.Client
	refs  map[string]refBody
	batch int // requests per round trip; 1 means GET /relax

	attempted  atomic.Int64
	failed     atomic.Int64
	answered   atomic.Int64 // correct operations whose response has arrived
	checked    atomic.Int64 // operations whose body was compared to the reference
	mismatched atomic.Int64 // ... and differed from it
}

const requestTimeout = 30 * time.Second

func newClient(addr string, workers, batch int, refs map[string]refBody) *client {
	c := &client{base: "http://" + addr, refs: refs, batch: batch}
	for i := 0; i < workers; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// answeredRight says whether one operation's response counts as correct:
// 200, or 404 for a term nothing maps to; and for the keys the reference
// answered, exactly the reference's status and bytes.
func (c *client) answeredRight(r request, status int, body []byte) bool {
	if ref, ok := c.refs[r.key()]; ok {
		c.checked.Add(1)
		if status == ref.status && bytes.Equal(body, ref.body) {
			return true
		}
		c.mismatched.Add(1)
		return false
	}
	return status == http.StatusOK || status == http.StatusNotFound
}

// do sends one round trip and returns how many of its operations came back
// correct. Transport errors, timeouts, 429 and 5xx fail all of them.
func (c *client) do(worker int, reqs []request) int {
	c.attempted.Add(int64(len(reqs)))
	var ok int
	if c.batch == 1 {
		ok = c.get(worker, reqs[0])
	} else {
		ok = c.post(worker, reqs)
	}
	c.failed.Add(int64(len(reqs) - ok))
	c.answered.Add(int64(ok))
	return ok
}

func (c *client) get(worker int, r request) int {
	resp, err := c.conns[worker].Get(c.base + r.path())
	if err != nil {
		return 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0
	}
	if c.answeredRight(r, resp.StatusCode, body) {
		return 1
	}
	return 0
}

type batchBody struct {
	Queries []request `json:"queries"`
}

type batchReply struct {
	Items []struct {
		Status int             `json:"status"`
		Body   json.RawMessage `json:"body"`
	} `json:"items"`
}

func (c *client) post(worker int, reqs []request) int {
	payload, err := json.Marshal(batchBody{Queries: reqs})
	if err != nil {
		return 0
	}
	resp, err := c.conns[worker].Post(c.base+"/relax/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0
	}
	var reply batchReply
	if err := json.Unmarshal(body, &reply); err != nil || len(reply.Items) != len(reqs) {
		return 0
	}
	ok := 0
	for i, item := range reply.Items {
		// A batch item's body is the GET body without the encoder's newline.
		if c.answeredRight(reqs[i], item.Status, append(item.Body, '\n')) {
			ok++
		}
	}
	return ok
}

// roundTrips cuts a stream into round trips of size requests; index i wraps
// so a fast run never falls off the end.
func roundTrips(stream []request, size int) func(i int) []request {
	n := len(stream) / size
	return func(i int) []request {
		i %= n
		return stream[i*size : (i+1)*size]
	}
}
