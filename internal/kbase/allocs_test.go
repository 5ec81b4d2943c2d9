//go:build !race

package kbase

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInsertAllocs is the allocation guard of the insert path on the
// memory backend (the race detector changes allocation counts, hence
// the build tag). A row is appended to typed vectors, so a new row costs
// no object of its own: what is allocated is the amortized growth of the
// vectors, of the index and of the dictionary of the 97 distinct names —
// some hundred objects over 4096 rows, through Insert and through
// InsertAll. A rejected duplicate is hashed from its typed cells and
// compared in place, and costs nothing.
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
	batch := perRow(func() {
		tbl = NewTable(schema)
		if _, err := tbl.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per new row: Insert %.3f, InsertAll %.3f", one, batch)
	if one > 0.05 {
		t.Errorf("Insert: %.3f allocations per new row, want <= 0.05 (amortized growth only)", one)
	}
	if batch > 0.05 {
		t.Errorf("InsertAll: %.3f allocations per new row, want <= 0.05 (amortized growth only)", batch)
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

// TestSealAllocs is the allocation guard of filling and sealing a page:
// the 128 appends that fill a paged backend's open page — 128 distinct
// strings among them — and the seal the last one triggers, encoding the
// page and putting it. A page costs a handful of objects: its vectors,
// allocated together, its dictionary's values and boxes, and one exactly
// sized blob — where boxing a string cell per row cost one per row.
func TestSealAllocs(t *testing.T) {
	schema := mustSchema(t, "features", "cand:integer", "seq:integer", "feature")
	const pageRows = 128
	rows := make([]Tuple, pageRows)
	for i := range rows {
		rows[i] = Tuple{int64(1000 + i/40), int64(100 + i%40), fmt.Sprintf("TAB_e1_HEAD_WORD_[collector-%d]", i)}
	}
	b := newPagedBackend("columnar", schema, &heapStore{}, pageRows, 2)
	batch, all := batchOf(schema, rows), make([]int, pageRows)
	for i := range all {
		all[i] = i
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	const runs = 21
	var page uint64
	for run := 0; run < runs; run++ {
		before := mallocs()
		for r := range all {
			if _, err := b.Append(batch, all[r:r+1]); err != nil {
				t.Fatal(err)
			}
		}
		page += mallocs() - before
	}
	page /= runs
	if pages := sealedPages(b); pages != runs {
		t.Fatalf("sealed %d pages, want %d", pages, runs)
	}
	t.Logf("filling and sealing a %d-row, %d-column page: %d allocations", pageRows, schema.Arity(), page)
	if limit := uint64(4 * schema.Arity()); page > limit {
		t.Errorf("filling and sealing a page costs %d allocations, want <= %d (it has %d cells)", page, limit, pageRows*schema.Arity())
	}
}

// liveHeap is the heap in use after two collections: a sync.Pool (fmt's)
// gives its contents up over two.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// featureRows are n rows shaped like the store's features relation —
// (cand, seq, feature) over `names` distinct feature names, a couple of
// hundred rows a candidate — appended in batches the size of a
// document's.
func featureRows(t *testing.T, tbl *Table, n, names int) {
	t.Helper()
	const perCand = 180
	batch := make([]Tuple, 0, 2000)
	for i := 0; i < n; i++ {
		batch = append(batch, Tuple{int64(i / perCand), int64(i % perCand), fmt.Sprintf("TAB_e1_ROW_HEAD_[%04d]", (i*7919)%names)})
		if len(batch) == cap(batch) || i == n-1 {
			if added, err := tbl.InsertAll(batch); err != nil || added != len(batch) {
				t.Fatalf("InsertAll = %d, %v", added, err)
			}
			batch = batch[:0]
		}
	}
}

// TestMemoryBackendBytesPerRow bounds what a row of the features
// relation costs the memory kind, dedup index included: its 20 bytes of
// payload (two int64s and a dictionary id), the index's 11–15, and the
// share of the table-wide dictionary — where a boxed row cost about 135.
// It logs what the same rows cost the other kinds, whose dictionaries are
// a page's: the encoded pages on the heap (columnar), or only the
// segment's page directory and the open page (disk), which it bounds too.
func TestMemoryBackendBytesPerRow(t *testing.T) {
	const n, names = 200_000, 5_000
	schema := mustSchema(t, "features", "cand:integer", "seq:integer", "feature")
	disk, err := NewDiskEngine(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, engine := range []*Engine{memoryEngine, NewColumnarEngine(0, 0), disk} {
		before := liveHeap()
		tbl := newBackedTable(engine, schema)
		featureRows(t, tbl, n, names)
		perRow := float64(liveHeap()-before) / n
		runtime.KeepAlive(tbl)
		t.Logf("%s backend: %.1f B/row at %d rows over %d names", engine.kind, perRow, n, names)
		if limit := map[string]float64{"memory": 40, "disk": 15}[engine.kind]; limit > 0 && perRow > limit {
			t.Errorf("a features row costs %.1f B on the %s backend, want <= %.0f", perRow, engine.kind, limit)
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoryBackendDeleteReleasesStrings: DeleteWhere re-packs the
// vectors to the survivors and rebuilds the string dictionaries from
// them, so the heap a table holds after deleting most of its rows is,
// to within a page, what a table holding only the survivors costs. (The
// store's meta relation is rewritten by delete-and-insert on every
// labeling-function edit; values that stayed in a dictionary would
// accumulate.)
func TestMemoryBackendDeleteReleasesStrings(t *testing.T) {
	schema := mustSchema(t, "kv", "key", "n:integer", "value")
	row := func(i int) Tuple {
		return Tuple{fmt.Sprintf("key-%06d", i), int64(i), fmt.Sprintf("a value long enough to be worth releasing: %032d", i)}
	}
	const n, keepEvery = 20_000, 100
	survivor := func(i int) bool { return i%keepEvery == 0 }
	fill := func(only func(int) bool) *Table {
		tbl := NewTable(schema)
		for i := 0; i < n; i++ {
			if only(i) {
				if _, err := tbl.Insert(row(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tbl
	}

	base := liveHeap()
	want := fill(survivor)
	wantBytes := int64(liveHeap() - base)
	base = liveHeap()
	got := fill(func(int) bool { return true })
	full := int64(liveHeap() - base)
	if deleted := got.DeleteWhere(func(tp Tuple) bool { return !survivor(int(tp[1].(int64))) }); deleted != n-n/keepEvery {
		t.Fatalf("deleted %d rows, want %d", deleted, n-n/keepEvery)
	}
	gotBytes := int64(liveHeap() - base)
	t.Logf("full table %d B, after DeleteWhere %d B, a table of the %d survivors %d B", full, gotBytes, want.Len(), wantBytes)
	const page = 8 << 10
	if gotBytes > wantBytes+page {
		t.Errorf("after DeleteWhere the table holds %d B, a table of the survivors %d B: the deleted rows were not released", gotBytes, wantBytes)
	}
	if !EqualDB(dbOf(t, got), dbOf(t, want)) {
		t.Error("the survivors differ from a table built from them")
	}
	if got.Contains(row(1)) || !got.Contains(row(keepEvery)) {
		t.Error("membership after DeleteWhere is wrong")
	}
}

// dbOf wraps one table in a database.
func dbOf(t *testing.T, tbl *Table) *DB {
	t.Helper()
	db := NewDB()
	if err := db.Attach(tbl); err != nil {
		t.Fatal(err)
	}
	return db
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
	with := liveHeap()
	tbl.dedup = dedupIndex{}
	without := liveHeap()
	runtime.KeepAlive(tbl)
	perRow := float64(with-without) / n
	t.Logf("dedup index: %.2f B/row at %d rows", perRow, n)
	if perRow > 16 || perRow < 8 {
		t.Errorf("dedup index costs %.2f B/row, want 8..16", perRow)
	}
}
