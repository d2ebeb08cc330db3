// Package parallel is the bounded worker pool behind the experiment
// engine. It fans independent grid cells — scenario × attack × filter
// tasks, per-image attack generation, per-sample evaluation — out over a
// fixed number of goroutines while keeping results deterministic: work
// items are identified by index, callers write results into index-
// addressed slots, and any reduction happens serially in index order
// afterwards, so a parallel run is bit-identical to a serial one.
//
// The pool size defaults to runtime.NumCPU and is set process-wide via
// SetWorkers (wired to the -workers flag of cmd/fademl-bench and
// cmd/fademl-analyze). SetWorkers(1) degrades every call site to plain
// serial loops, which the determinism tests exploit.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide pool size; 0 means "use
// runtime.NumCPU()".
var defaultWorkers atomic.Int64

// Workers returns the current process-wide worker count (at least 1).
func Workers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// SetWorkers sets the process-wide worker count used when a call site
// passes workers <= 0. n <= 0 resets to runtime.NumCPU().
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// For runs fn(i) for every i in [0, n) over a pool of the given number of
// workers (workers <= 0 selects Workers()). Indices are claimed
// dynamically from an atomic counter, so uneven task costs balance
// automatically. fn must be safe for concurrent invocation; For returns
// after every index has completed. A panic in fn is re-raised on the
// calling goroutine after the pool drains.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// activeFanOuts counts ForWorker calls currently running with more than
// one worker. Nested fan-out consumers (filters.ApplyBatch inside an
// evaluation worker) consult Active to degrade to inline serial work
// instead of oversubscribing the CPU with workers² goroutines.
var activeFanOuts atomic.Int64

// Active reports how many multi-worker fan-outs are in flight across
// the process. The snapshot is advisory (racy by nature): callers use
// it only to choose between a parallel and a bit-identical serial code
// path, so staleness affects scheduling, never results.
func Active() int { return int(activeFanOuts.Load()) }

// ForWorker is For with the worker id (in [0, effective-worker-count))
// passed alongside the task index, so callers can address per-worker
// resources such as cloned networks. Worker 0 is the calling goroutine.
func ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	activeFanOuts.Add(1)
	defer activeFanOuts.Add(-1)

	var next atomic.Int64
	var panicOnce sync.Once
	var panicked any
	run := func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
				// Drain remaining indices so sibling workers exit promptly.
				next.Store(int64(n))
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(worker, i)
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			run(worker)
		}(w)
	}
	run(0)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
