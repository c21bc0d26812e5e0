package main

import (
	"fmt"
	"time"
)

// smoke is the quick gate for a CI job: miss_small against a plain w2k
// (no accelerators, so it builds in a second) for 2 s, plus the
// golden check on the system that wrote the bundle and the reference-body
// check on everything served. It reports correctness, not performance.
func (h *harness) smoke(seed int64) error {
	start := time.Now()
	wl, _ := findWorkload("miss_small")
	wl.world = "w2kplain"
	wl.rate = 200 // live traversal only: a third of what the indexed bundle sustains
	values, res, err := runServing(h.ws, wl, seed, 2*time.Second, false)
	if err != nil {
		return err
	}
	metrics, err := report(h.spec.EndToEnd, values)
	if err != nil {
		return err
	}
	res.Metrics = metrics
	if err := printResult(res); err != nil {
		return err
	}
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("smoke: correct=%v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
	}
	logf("smoke ok in %s: golden hashes match, %d operations answered, served bodies equal the live traversal's", time.Since(start).Round(time.Millisecond), res.Attempted)
	return nil
}
