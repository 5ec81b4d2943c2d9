// Package pool is the one worker-pool primitive shared by every
// parallel stage in the system (core's extraction/featurization,
// labeling's LF application, experiments' configuration fan-out).
// It lives below all of them so packages that cannot import each
// other (core imports labeling) still share a single implementation.
//
// # Fleet-wide capacity sharing
//
// A process hosting many independent sessions (the multi-tenant
// serving registry) must not let one tenant's retrain fan out into
// Workers goroutines per tenant and oversubscribe the machine.
// SetSharedLimit installs a process-wide cap on the *extra* worker
// goroutines any Run call may hold concurrently. The calling
// goroutine always participates as worker 0 without consuming a
// slot, so every Run call makes progress even when the fleet has
// exhausted the budget — a tenant can be slowed to sequential
// execution, never starved or deadlocked (nested Run calls inherit
// the same guarantee). Because results are bit-identical at any
// worker count, the cap changes scheduling only, never output.
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

// limiter is a non-blocking counting semaphore over extra worker
// goroutines. Acquisition never blocks: a Run call that finds the
// budget exhausted simply spawns fewer workers.
type limiter struct {
	max   int64
	inUse atomic.Int64
}

func (l *limiter) tryAcquire() bool {
	for {
		cur := l.inUse.Load()
		if cur >= l.max {
			return false
		}
		if l.inUse.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (l *limiter) release() { l.inUse.Add(-1) }

// shared is the installed process-wide limiter (nil = unlimited, the
// library default: plain single-session programs keep today's exact
// behavior).
var shared atomic.Pointer[limiter]

// SetSharedLimit caps the total number of extra worker goroutines
// held concurrently by all Run calls in the process at n (<=0
// removes the cap). The serving registry installs this once at
// startup so N tenants share one budget instead of multiplying
// theirs. Safe to call concurrently with running pools: in-flight
// workers drain against the limiter they acquired from.
func SetSharedLimit(n int) {
	if n <= 0 {
		shared.Store(nil)
		return
	}
	shared.Store(&limiter{max: int64(n)})
}

// SharedLimit reports the current process-wide cap (0 = unlimited).
func SharedLimit() int {
	if l := shared.Load(); l != nil {
		return int(l.max)
	}
	return 0
}

// SharedInUse reports how many extra worker goroutines currently hold
// a slot of the shared limit (0 when no limit is installed). It is a
// point-in-time sample for utilization gauges; the value is already
// stale by the time the caller reads it.
func SharedInUse() int {
	if l := shared.Load(); l != nil {
		return int(l.inUse.Load())
	}
	return 0
}

// Run executes fn(i) for every i in [0, n) on up to workers
// goroutines (<=0 means GOMAXPROCS). With one worker (or one task)
// the calls run sequentially in index order on the calling goroutine.
// Callers must write results into per-index slots so that output
// order never depends on goroutine scheduling — the discipline behind
// the pipeline's bit-identical-at-any-worker-count guarantee.
//
// The calling goroutine always works as worker 0; the remaining
// workers-1 goroutines are spawned only while the process-wide
// shared limit (SetSharedLimit) has slots free, so concurrent Run
// calls across tenants degrade gracefully toward sequential instead
// of oversubscribing the host.
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
	lim := shared.Load()
	var wg sync.WaitGroup
	var workerPanic atomic.Pointer[string]
	for w := 1; w < workers; w++ {
		if lim != nil {
			if !lim.tryAcquire() {
				break // budget exhausted: run with the workers we got
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lim != nil {
				defer lim.release()
			}
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
	work() // worker 0: the caller, unconditionally
	wg.Wait()
	if msg := workerPanic.Load(); msg != nil {
		panic(*msg)
	}
}
