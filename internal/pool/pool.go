// Package pool is the one worker-pool primitive shared by every
// parallel stage in the system (core's extraction/featurization,
// labeling's LF application, experiments' configuration fan-out).
// It lives below all of them so packages that cannot import each
// other (core imports labeling) still share a single implementation.
//
// Nothing caps goroutines across Run calls: a process hosting many
// tenants shares CPU through the Go scheduler, which runs at most
// GOMAXPROCS goroutines at once, and since every stage is
// bit-identical at any worker count, the schedule never changes
// output.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: <=0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes fn(i) for every i in [0, n) on up to workers
// goroutines (<=0 means GOMAXPROCS). With one worker (or one task)
// the calls run sequentially in index order on the calling goroutine.
// Callers must write results into per-index slots so that output
// order never depends on goroutine scheduling — the discipline behind
// the pipeline's bit-identical-at-any-worker-count guarantee.
//
// The calling goroutine always works as worker 0, beside workers-1
// spawned goroutines.
//
// A panic in fn on a spawned worker would end the process whatever the
// caller does, so it is carried to the calling goroutine and re-raised
// there once the workers have returned (the first one, with its
// worker's stack): a recover above Run covers the whole pool.
func Run(n, workers int, fn func(int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Worker goroutines pull indices from a shared counter:
	// O(workers) goroutines regardless of n, no parked spawn-per-item
	// goroutines.
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	var workerPanic atomic.Pointer[string]
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(n)) // the other workers stop at their next index
					msg := fmt.Sprintf("%v\n\npool worker stack:\n%s", r, debug.Stack())
					workerPanic.CompareAndSwap(nil, &msg)
				}
			}()
			work()
		}()
	}
	work() // worker 0: the caller
	wg.Wait()
	if msg := workerPanic.Load(); msg != nil {
		panic(*msg)
	}
}
