package core

import "sync"

// parallelChunks splits [0, n) into at most workers contiguous ranges and
// runs fn(lo, hi) on each from its own goroutine, waiting for all of them.
// With workers <= 1 (or n <= 1) it calls fn(0, n) inline, so serial and
// parallel callers share one code path. fn must not panic.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}
