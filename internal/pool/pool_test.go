package pool

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", got)
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d", got)
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
}

// TestRunCoversEveryIndexOnce checks the contract every parallel stage
// relies on: fn runs exactly once per index, for any worker count,
// including workers > n, n == 0 and n == 1; with concurrent callers
// (tenants' stages side by side); and with a Run nested inside a worker
// (an experiment sweep running pipelines, one tenant's stages inside
// the registry's writer), which must complete.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, workers := range []int{1, 2, 8, 0, 2000} {
			calls := make([]atomic.Int32, n)
			Run(n, workers, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}

	const callers, n = 4, 200
	var calls [callers][n]atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			Run(n, 8, func(i int) {
				runtime.Gosched()
				calls[c][i].Add(1)
			})
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		for i := 0; i < n; i++ {
			if got := calls[c][i].Load(); got != 1 {
				t.Fatalf("concurrent caller %d: index %d ran %d times", c, i, got)
			}
		}
	}

	var nested [4][4]atomic.Int32
	Run(4, 4, func(i int) {
		Run(4, 4, func(j int) { nested[i][j].Add(1) })
	})
	for i := range nested {
		for j := range nested[i] {
			if got := nested[i][j].Load(); got != 1 {
				t.Fatalf("nested run (%d, %d) ran %d times", i, j, got)
			}
		}
	}
}

// TestRunSequentialOrder checks that one worker runs indices in order
// on the calling goroutine — the degenerate case the determinism
// arguments reduce to.
func TestRunSequentialOrder(t *testing.T) {
	var seen []int
	Run(5, 1, func(i int) { seen = append(seen, i) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("order = %v", seen)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("len = %d", len(seen))
	}
}

// TestRunReraisesWorkerPanic: a panic on a spawned worker reaches the
// goroutine that called Run — where a caller's recover can see it —
// instead of ending the process, and carries the worker's stack.
func TestRunReraisesWorkerPanic(t *testing.T) {
	var inFlight sync.WaitGroup
	inFlight.Add(2)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, "pool worker stack") {
			t.Fatalf("Run panicked with %q, want the worker's panic and stack", msg)
		}
	}()
	Run(2, 2, func(int) {
		inFlight.Done()
		inFlight.Wait() // both indices are running, so one is on the spawned worker
		if !strings.Contains(string(debug.Stack()), "tRunner") {
			panic("boom")
		}
	})
	t.Fatal("Run returned normally")
}
