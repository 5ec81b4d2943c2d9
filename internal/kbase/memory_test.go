package kbase

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestMemoryBackendConcurrentReads is the read contract under the race
// detector (run it with -race -count=10), on every kind: a table nobody
// writes any more — a published KB — is read by eight goroutines at
// once through every read path, each of which must see exactly what a
// lone reader sees. A lent row is per-call scratch, never shared, so a
// Scan that checked its rows against another goroutine's would find
// them torn.
func TestMemoryBackendConcurrentReads(t *testing.T) {
	forEachBackend(t, concurrentReads)
}

func concurrentReads(t *testing.T, engine *Engine) {
	tbl := newBackedTable(engine, whereSchema(t))
	const n = 512
	fillWidgets(t, tbl, n)
	want := tbl.Tuples()
	grp3, total3 := legacyFilterPage(tbl, []Pred{{Col: 1, Want: "g3"}}, 0, 0)

	const readers, rounds = 8, 40
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := 0
				tbl.Scan(func(tp Tuple) bool {
					if !reflect.DeepEqual(tp, want[i]) {
						t.Errorf("reader %d: Scan row %d = %v, want %v", r, i, tp, want[i])
						return false
					}
					i++
					return true
				})
				if i != n {
					t.Errorf("reader %d: Scan saw %d rows, want %d", r, i, n)
				}
				off := (r*61 + round*7) % n
				if got := tbl.Page(off, 16); !reflect.DeepEqual(got, want[off:min(off+16, n)]) {
					t.Errorf("reader %d: Page(%d, 16) = %v", r, off, got)
				}
				// The first rounds scan, the later ones go through the
				// index the planner builds once the column is hot.
				if got, total := tbl.PageWhere([]Pred{{Col: 1, Want: "g3"}}, 0, 0); total != total3 || !reflect.DeepEqual(got, grp3) {
					t.Errorf("reader %d: PageWhere(grp=g3) = %v (%d)", r, got, total)
				}
				part := fmt.Sprintf("p%03d", off)
				if got, total := tbl.PageWhere([]Pred{{Col: 0, Want: part}, {Col: 2, Want: fmt.Sprint(off)}}, 0, 1); total != 1 || !reflect.DeepEqual(got, want[off:off+1]) {
					t.Errorf("reader %d: PageWhere(part=%s) = %v (%d)", r, part, got, total)
				}
				if _, total := tbl.PageWhere([]Pred{{Col: 1, Want: "no such group"}}, 0, 0); total != 0 {
					t.Errorf("reader %d: a value the dictionary does not hold matched %d rows", r, total)
				}
				if !tbl.Contains(want[off]) || tbl.Contains(Tuple{part, "g3", -1, 0.5}) {
					t.Errorf("reader %d: Contains is wrong about row %d", r, off)
				}
			}
		}(r)
	}
	wg.Wait()
}
