// Package workpool provides the bounded worker pool shared by every CPU
// fan-out in the repository: the evaluators' parallel extent validation and
// the build pipeline's parallel refinement rounds both draw from one global
// concurrency budget, so a construction running concurrently with query
// traffic cannot oversubscribe the machine to 2x GOMAXPROCS.
//
// The pool is a semaphore, not a goroutine farm: Chunks spawns one goroutine
// per chunk but caps how many run at once across all concurrent callers.
// Callers choose their chunk boundaries — determinism contracts ("merge
// per-chunk results in chunk order") live with the caller; the pool only
// bounds parallelism. Chunk functions must not call back into the pool:
// nested fan-out could otherwise deadlock on the shared budget.
package workpool

import (
	"runtime"
	"sync"
)

// limit caps concurrently running chunks across all callers. GOMAXPROCS at
// init, floored at 1; tests may lower GOMAXPROCS afterwards — Workers
// re-reads it per call so chunk counts still honour the runtime setting.
var (
	sem     chan struct{}
	semOnce sync.Once
)

func acquire() {
	semOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
		sem = make(chan struct{}, n)
	})
	sem <- struct{}{}
}

func release() { <-sem }

// Workers returns the fan-out width for n items with at least minPerWorker
// items per chunk: GOMAXPROCS capped at max and at n (a worker without an
// item is no worker), floored at 1. Callers use it to compute deterministic
// chunk boundaries before handing chunks to the pool.
func Workers(n, minPerWorker, max int) int {
	w := runtime.GOMAXPROCS(0)
	if max > 0 && w > max {
		w = max
	}
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	if n/minPerWorker < w {
		w = n / minPerWorker
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Chunks splits [0, n) into `workers` contiguous chunks of near-equal size
// and runs fn(w, lo, hi) for each, blocking until all complete. Chunk w
// covers [w*ceil(n/workers), min((w+1)*ceil(n/workers), n)); trailing empty
// chunks are skipped. With workers <= 1 (or n the size of one chunk) fn runs
// inline on the caller's goroutine, paying no synchronization at all.
func Chunks(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	if workers == 1 || chunk >= n {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acquire()
			defer release()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
