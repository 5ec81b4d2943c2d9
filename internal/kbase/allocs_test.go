//go:build !race

package kbase

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInsertAllocs is the allocation guard of the insert path on the
// memory backend (the race detector changes allocation counts, hence
// the build tag). A new row costs its stored copy and the amortized
// growth of the row slice and the index — at most 2 objects, through
// Insert and through InsertAll; a rejected duplicate is hashed from its
// typed cells and compared in place, and costs nothing.
func TestInsertAllocs(t *testing.T) {
	schema := mustSchema(t, "features", "cand:integer", "seq:integer", "name", "w:float")
	const n = 4096
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{int64(i / 16), int64(1000 + i%16), fmt.Sprintf("feature-%d", i%97), float64(i) / 3}
	}
	var tbl *Table
	perRow := func(f func()) float64 { return testing.AllocsPerRun(5, f) / n }

	one := perRow(func() {
		tbl = NewTable(schema)
		for _, tp := range rows {
			if _, err := tbl.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
	})
	if one > 2 {
		t.Errorf("Insert: %.2f allocations per new row, want <= 2", one)
	}
	batch := perRow(func() {
		tbl = NewTable(schema)
		if _, err := tbl.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
	})
	if batch > 2 {
		t.Errorf("InsertAll: %.2f allocations per new row, want <= 2", batch)
	}

	if dup := perRow(func() {
		for _, tp := range rows {
			if added, _ := tbl.Insert(tp); added {
				t.Fatal("a duplicate was added")
			}
		}
	}); dup != 0 {
		t.Errorf("Insert: %.4f allocations per rejected duplicate, want 0", dup)
	}
	if dup := perRow(func() {
		if added, _ := tbl.InsertAll(rows); added != 0 {
			t.Fatal("duplicates were added")
		}
	}); dup != 0 {
		t.Errorf("InsertAll: %.4f allocations per rejected duplicate, want 0", dup)
	}
	if dup := perRow(func() {
		for _, tp := range rows {
			if !tbl.Contains(tp) {
				t.Fatal("a stored row was not found")
			}
		}
	}); dup != 0 {
		t.Errorf("Contains: %.4f allocations per probe, want 0", dup)
	}
}

// TestSealAllocs is the allocation guard of sealing a page: encoding the
// tail, putting the page and building its zone map. 128 appends to a
// paged backend seal exactly one 128-row page and cost O(columns)
// objects — the tail's growth, one exactly sized block per column, the
// page, and the values the zone's min, max and distinct slots adopt —
// where rendering every numeric cell to a string cost one per cell.
func TestSealAllocs(t *testing.T) {
	schema := mustSchema(t, "features", "cand:integer", "seq:integer", "feature")
	const pageRows = 128
	rows := make([]Tuple, pageRows)
	for i := range rows {
		rows[i] = Tuple{int64(1000 + i/40), int64(100 + i%40), fmt.Sprintf("TAB_e1_HEAD_WORD_[collector-%d]", i)}
	}
	b := newPagedBackend("columnar", schema, &heapStore{}, pageRows, 2)
	seal := testing.AllocsPerRun(20, func() {
		for _, tp := range rows {
			if err := b.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
	})
	if pages := b.Stats().Pages; pages != 21 {
		t.Fatalf("sealed %d pages, want 21", pages)
	}
	t.Logf("sealing a %d-row, %d-column page: %.0f allocations", pageRows, schema.Arity(), seal)
	if limit := float64(16 * schema.Arity()); seal > limit {
		t.Errorf("sealing a page costs %.0f allocations, want <= %.0f (it has %d cells)", seal, limit, pageRows*schema.Arity())
	}
}

// TestDedupIndexBytesPerRow measures what set semantics cost: the heap
// held by the dedup index of a 100 000-row table, per row.
func TestDedupIndexBytesPerRow(t *testing.T) {
	const n = 100_000
	tbl := NewTable(mustSchema(t, "ids", "id:integer"))
	for i := 0; i < n; i += 1000 {
		batch := make([]Tuple, 1000)
		for k := range batch {
			batch[k] = Tuple{int64(i + k)}
		}
		if _, err := tbl.InsertAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	tbl.dedup = dedupIndex{}
	without := heap()
	runtime.KeepAlive(tbl)
	perRow := float64(with-without) / n
	t.Logf("dedup index: %.2f B/row at %d rows", perRow, n)
	if perRow > 16 || perRow < 8 {
		t.Errorf("dedup index costs %.2f B/row, want 8..16", perRow)
	}
}
