package kbase

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Get returns a copy of the row at position i.
func (b *pagedBackend) Get(i int) Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, k := b.row(i)
	tp := make(Tuple, b.schema.Arity())
	v.fill(tp, k)
	return tp
}

// forEachBackend runs the same test body against every storage
// engine, so Table semantics (set membership, insertion order,
// pagination, deletion, snapshots) are proven identical across the
// memory, disk and columnar kinds. The disk and columnar engines use a
// tiny page size so a handful of rows already spans several pages and a
// partial tail.
func forEachBackend(t *testing.T, fn func(t *testing.T, engine *Engine)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) { fn(t, memoryEngine) })
	t.Run("disk", func(t *testing.T) {
		engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		fn(t, engine)
	})
	t.Run("columnar", func(t *testing.T) {
		engine := NewColumnarEngine(4, 2)
		defer engine.Close()
		fn(t, engine)
	})
}

// newBackedTable creates one table through the engine, as DB.Create
// does.
func newBackedTable(engine *Engine, schema Schema) *Table {
	return newTableWith(schema, engine.newBackend(schema))
}

// fillParts inserts n rows ("p<i>", i) in order.
func fillParts(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		added, err := tbl.Insert(Tuple{fmt.Sprintf("p%02d", i), i})
		if err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", i, added, err)
		}
	}
}

func partsOf(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, tp := range rows {
		out[i] = tp[0].(string)
	}
	return out
}

func TestBackendSetSemantics(t *testing.T) {
	forEachInsertPath(t, func(t *testing.T, engine *Engine, insert insertFunc) {
		tbl := newBackedTable(engine, mustSchema(t, "r", "part", "n:integer"))
		for i := 0; i < 10; i++ {
			if added, err := insert(tbl, []Tuple{{fmt.Sprintf("p%02d", i), i}}); err != nil || added != 1 {
				t.Fatalf("insert %d: added=%v err=%v", i, added, err)
			}
		}
		if tbl.Len() != 10 {
			t.Fatalf("len = %d", tbl.Len())
		}
		// Duplicates (with int normalization) are no-ops.
		if added, err := insert(tbl, []Tuple{{"p03", int64(3)}}); err != nil || added != 0 {
			t.Fatalf("dup insert: added=%v err=%v", added, err)
		}
		for i := 0; i < 10; i++ {
			if !tbl.Contains(Tuple{fmt.Sprintf("p%02d", i), i}) {
				t.Fatalf("Contains(p%02d) = false", i)
			}
		}
		if tbl.Contains(Tuple{"p99", 99}) || tbl.Contains(Tuple{"p01"}) {
			t.Fatal("phantom membership")
		}
		// Exact-tuple delete re-packs and keeps the rest queryable.
		if !deleteTuple(tbl, Tuple{"p04", 4}) {
			t.Fatal("Delete(p04) = false")
		}
		if deleteTuple(tbl, Tuple{"p04", 4}) {
			t.Fatal("second Delete(p04) must be false")
		}
		if tbl.Len() != 9 || tbl.Contains(Tuple{"p04", 4}) {
			t.Fatalf("post-delete len=%d contains=%v", tbl.Len(), tbl.Contains(Tuple{"p04", 4}))
		}
		want := []string{"p00", "p01", "p02", "p03", "p05", "p06", "p07", "p08", "p09"}
		got := partsOf(tbl.Tuples())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order after delete: got %v", got)
			}
		}
		// The deleted tuple can be re-inserted (index rebuilt correctly).
		if added, err := insert(tbl, []Tuple{{"p04", 4}}); err != nil || added != 1 {
			t.Fatalf("re-insert after delete: added=%v err=%v", added, err)
		}

		// Cells are stored bit for bit — a NaN's payload, the sign of zero,
		// a subnormal, NUL and separator bytes — in sealed pages as in the
		// tail (two pages and a row at pageRows = 4), whichever read hands
		// them back.
		exact := newBackedTable(engine, mustSchema(t, "exact", "s", "f:float"))
		stored := exactRows()
		if n, err := insert(exact, stored); err != nil || n != len(stored) {
			t.Fatalf("insert(exact) = %d, %v", n, err)
		}
		var scanned, gotten []Tuple
		exact.Scan(func(tp Tuple) bool {
			scanned = append(scanned, tp.Clone())
			return true
		})
		reads := map[string][]Tuple{"Scan": scanned, "Page": exact.Page(0, 0)}
		for i := range stored {
			gotten = append(gotten, exact.be.Get(i).Clone())
		}
		reads["Get"] = gotten
		for read, got := range reads {
			if len(got) != len(stored) {
				t.Fatalf("%s returned %d rows, want %d", read, len(got), len(stored))
			}
			for i, tp := range stored {
				gf, wf := math.Float64bits(got[i][1].(float64)), math.Float64bits(tp[1].(float64))
				if got[i][0] != tp[0] || gf != wf {
					t.Fatalf("%s row %d = (%q, %#x), stored (%q, %#x)", read, i, got[i][0], gf, tp[0], wf)
				}
			}
		}
	})
}

// exactRows are (string, float) rows whose cells a lossy store would
// change: each float has a rendering that does not parse back to the
// same bits, or is at an edge of the format.
func exactRows() []Tuple {
	floats := []float64{
		math.Float64frombits(0x7ff8000000000123), // NaN with a payload
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		1e21,
		math.Inf(-1),
	}
	strs := []string{"nul\x00byte", "tab\tand\nnewline\r\\", "", "\xff\xfe not utf8"}
	rows := make([]Tuple, 9)
	for i := range rows {
		rows[i] = Tuple{fmt.Sprintf("%d:%s", i, strs[i%len(strs)]), floats[i%len(floats)]}
	}
	return rows
}

func TestBackendPageEdgeCases(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, mustSchema(t, "r", "part", "n:integer"))

		// Empty table: every window is empty.
		if got := tbl.Page(0, 0); got != nil {
			t.Fatalf("empty Page(0,0) = %v", got)
		}
		if got := tbl.Page(3, 5); got != nil {
			t.Fatalf("empty Page(3,5) = %v", got)
		}

		fillParts(t, tbl, 10) // spans 2 full disk pages + tail at pageRows=4
		cases := []struct {
			offset, limit int
			want          []string
		}{
			{0, 3, []string{"p00", "p01", "p02"}},
			{3, 4, []string{"p03", "p04", "p05", "p06"}},    // crosses a page boundary
			{8, 0, []string{"p08", "p09"}},                  // limit 0 = to the end
			{8, -1, []string{"p08", "p09"}},                 // negative limit = to the end
			{9, 5, []string{"p09"}},                         // window clipped at the end
			{10, 1, nil},                                    // offset == len
			{99, 2, nil},                                    // offset past the end
			{-2, 2, []string{"p00", "p01"}},                 // negative offset clamps to 0
			{7, math.MaxInt, []string{"p07", "p08", "p09"}}, // huge limit must not overflow
			{0, 0, []string{"p00", "p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08", "p09"}},
		}
		for _, c := range cases {
			got := partsOf(tbl.Page(c.offset, c.limit))
			if len(got) != len(c.want) {
				t.Fatalf("Page(%d,%d) = %v, want %v", c.offset, c.limit, got, c.want)
			}
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Fatalf("Page(%d,%d) = %v, want %v", c.offset, c.limit, got, c.want)
				}
			}
		}
		// Pages are detached: mutating a served row never corrupts the
		// table.
		page := tbl.Page(0, 2)
		page[0][0] = "corrupted"
		if tbl.Tuples()[0][0] != "p00" || !tbl.Contains(Tuple{"p00", 0}) {
			t.Fatal("Page aliased table storage")
		}
	})
}

func TestBackendDeleteWhereEdgeCases(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, mustSchema(t, "r", "part", "n:integer"))

		// Deleting from an empty table is a no-op.
		if n := tbl.DeleteWhere(func(Tuple) bool { return true }); n != 0 {
			t.Fatalf("empty DeleteWhere = %d", n)
		}
		fillParts(t, tbl, 10)

		// A predicate matching nothing deletes nothing and keeps every
		// row addressable.
		if n := tbl.DeleteWhere(func(Tuple) bool { return false }); n != 0 {
			t.Fatalf("no-op DeleteWhere = %d", n)
		}
		if tbl.Len() != 10 || !tbl.Contains(Tuple{"p07", 7}) {
			t.Fatal("no-op DeleteWhere disturbed the table")
		}

		// Delete the odd rows: survivors keep relative order, the index
		// serves membership for survivors only, and pagination follows
		// the re-packed positions.
		n := tbl.DeleteWhere(func(tp Tuple) bool { return tp[1].(int64)%2 == 1 })
		if n != 5 || tbl.Len() != 5 {
			t.Fatalf("odd DeleteWhere: n=%d len=%d", n, tbl.Len())
		}
		want := []string{"p00", "p02", "p04", "p06", "p08"}
		got := partsOf(tbl.Tuples())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("survivors = %v", got)
			}
		}
		if tbl.Contains(Tuple{"p01", 1}) || !tbl.Contains(Tuple{"p08", 8}) {
			t.Fatal("index out of sync after DeleteWhere")
		}
		if got := partsOf(tbl.Page(3, 2)); len(got) != 2 || got[0] != "p06" || got[1] != "p08" {
			t.Fatalf("Page after DeleteWhere = %v", got)
		}

		// Delete everything; the table stays usable.
		if n := tbl.DeleteWhere(func(Tuple) bool { return true }); n != 5 {
			t.Fatalf("delete-all = %d", n)
		}
		if tbl.Len() != 0 || tbl.Page(0, 0) != nil {
			t.Fatal("delete-all left rows behind")
		}
		if added, err := tbl.Insert(Tuple{"fresh", 0}); err != nil || !added {
			t.Fatalf("insert after delete-all: %v %v", added, err)
		}
	})
}

// TestBackendDeleteDuringSnapshot pins the snapshot-isolation shape a
// single-writer session relies on: a snapshot taken before a delete
// keeps the pre-delete rows (its bytes are already rendered), the
// delete does not disturb it, and a snapshot taken after reflects
// exactly the survivors.
func TestBackendDeleteDuringSnapshot(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, mustSchema(t, "r", "part", "n:integer"))
		fillParts(t, tbl, 10)

		var before bytes.Buffer
		if err := tbl.WriteTSV(&before); err != nil {
			t.Fatal(err)
		}
		if n := tbl.DeleteWhere(func(tp Tuple) bool { return tp[1].(int64) >= 5 }); n != 5 {
			t.Fatalf("delete = %d", n)
		}
		// The pre-delete snapshot still parses to the full row set.
		restored, err := ReadTSV(bytes.NewReader(before.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if restored.Len() != 10 || !restored.Contains(Tuple{"p09", 9}) {
			t.Fatalf("pre-delete snapshot lost rows: len=%d", restored.Len())
		}
		// A fresh snapshot holds exactly the survivors.
		var after bytes.Buffer
		if err := tbl.WriteTSV(&after); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTSV(bytes.NewReader(after.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != 5 || again.Contains(Tuple{"p05", 5}) || !again.Contains(Tuple{"p04", 4}) {
			t.Fatalf("post-delete snapshot wrong: len=%d", again.Len())
		}
	})
}

// TestBackendTSVBytesIdentical is the serialization half of the
// cross-backend equivalence invariant: the same inserts in the same
// order produce byte-identical WriteTSV output (and therefore
// byte-identical SaveDB snapshots) from both backends, including
// values that exercise the escaping.
func TestBackendTSVBytesIdentical(t *testing.T) {
	schema := mustSchema(t, "r", "part", "note", "n:integer", "score:float")
	rows := make([]Tuple, 0, 40)
	for i := 0; i < 40; i++ {
		rows = append(rows, Tuple{
			fmt.Sprintf("p%02d", i),
			fmt.Sprintf("line\nbreak\tand\\slash %d", i),
			i,
			float64(i) / 7,
		})
	}
	render := func(t *testing.T, engine *Engine) []byte {
		t.Helper()
		tbl := newBackedTable(engine, schema)
		for _, tp := range rows {
			if _, err := tbl.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := tbl.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mem := render(t, memoryEngine)
	disk, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if got := render(t, disk); !bytes.Equal(mem, got) {
		t.Fatalf("WriteTSV bytes differ across backends:\nmemory: %q\ndisk:   %q", mem, got)
	}
	columnar := NewColumnarEngine(8, 2)
	defer columnar.Close()
	if got := render(t, columnar); !bytes.Equal(mem, got) {
		t.Fatalf("WriteTSV bytes differ across backends:\nmemory:   %q\ncolumnar: %q", mem, got)
	}
}

// TestDiskBackendPaging exercises the disk engine's page mechanics
// directly: rows spill to the table's segment as pages fill, reads run
// through the LRU cache (hits and misses both observed), and a table
// several pages long still scans in insertion order.
func TestDiskBackendPaging(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "spill")
	engine, err := NewDiskEngine(spill, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(engine, mustSchema(t, "r", "part", "n:integer"))
	empty := newBackedTable(engine, mustSchema(t, "e", "part"))
	fillParts(t, tbl, 3) // no page sealed yet
	// The spill holds one segment per table that has sealed a page, as
	// long as its pages laid end to end — nothing else, before and after
	// a delete rewrite, and nothing once the table is closed.
	checkSpill := func(when string, pages int) {
		t.Helper()
		if got := sealedPages(tbl.be); got != pages {
			t.Fatalf("%s: pages = %d, want %d", when, got, pages)
		}
		want := map[string]int64{}
		if pages > 0 {
			store := tbl.be.store
			for p := 0; p < pages; p++ {
				page, err := store.get(p)
				if err != nil {
					t.Fatal(err)
				}
				want["t0001-r.seg"] += int64(len(page))
			}
		}
		got := map[string]int64{}
		entries, err := os.ReadDir(spill)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil || e.IsDir() {
				t.Fatalf("%s: spill entry %s: dir %v, err %v", when, e.Name(), e.IsDir(), err)
			}
			got[e.Name()] = info.Size()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: spill holds %v, want %v", when, got, want)
		}
	}
	checkSpill("before the first seal", 0)
	for i := 3; i < 19; i++ { // 4 full pages + 3-row tail
		if _, err := tbl.Insert(Tuple{fmt.Sprintf("p%02d", i), i}); err != nil {
			t.Fatal(err)
		}
	}
	checkSpill("after fill", 4)

	// Sequential scans see every row in order...
	var got []string
	tbl.Scan(func(tp Tuple) bool {
		got = append(got, tp[0].(string))
		return true
	})
	if len(got) != 19 || got[0] != "p00" || got[18] != "p18" {
		t.Fatalf("scan = %v", got)
	}
	// ...and with only 2 cached pages, scanning 4 pages twice must both
	// hit and miss the cache.
	tbl.Scan(func(Tuple) bool { return true })
	bs := tbl.BackendStats()
	if bs.CacheMisses == 0 {
		t.Fatal("expected cache misses after scanning more pages than fit")
	}
	// Repeatedly reading the same row is all hits after the first load.
	for i := 0; i < 5; i++ {
		if !tbl.Contains(Tuple{"p01", 1}) {
			t.Fatal("Contains(p01)")
		}
	}
	if after := tbl.BackendStats(); after.CacheHits <= bs.CacheHits {
		t.Fatalf("expected cache hits to grow: %+v -> %+v", bs, after)
	}
	if tbl.be.kind != "disk" {
		t.Fatalf("kind = %q", tbl.be.kind)
	}
	if n := tbl.DeleteWhere(func(tp Tuple) bool { return tp[1].(int64) < 9 }); n != 9 {
		t.Fatalf("DeleteWhere removed %d", n)
	}
	checkSpill("after delete", 2)
	if tbl.Len() != 10 || !tbl.Contains(Tuple{"p18", 18}) || tbl.Contains(Tuple{"p08", 8}) {
		t.Fatalf("after delete: %d rows", tbl.Len())
	}
	// A rewrite no survivor of which seals a page leaves no segment, and
	// the table fills one again afterwards.
	if n := tbl.DeleteWhere(func(tp Tuple) bool { return tp[1].(int64) < 17 }); n != 8 {
		t.Fatalf("second DeleteWhere removed %d", n)
	}
	checkSpill("after a delete down to the tail", 0)
	fillParts(t, tbl, 9) // p17, p18 kept; p00..p08 new: 11 rows
	checkSpill("after refill", 2)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
	checkSpill("after Close", 0)

	// A filtered read walks sealed pages through the LRU too: over a table
	// whose cache holds every page, the second pass of a scan-plan read is
	// all hits.
	roomy, err := NewDiskEngine(filepath.Join(t.TempDir(), "roomy"), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer roomy.Close()
	cached := newBackedTable(roomy, mustSchema(t, "c", "part", "n:integer"))
	cached.SetAutoIndex(false)
	fillParts(t, cached, 19) // 4 sealed pages + 3-row tail
	where := []Pred{{Col: 1, Want: "7"}}
	if _, total := cached.PageWhere(where, 0, 0); total != 1 {
		t.Fatalf("first filtered pass: total %d", total)
	}
	before := cached.BackendStats()
	if _, total := cached.PageWhere(where, 0, 0); total != 1 {
		t.Fatalf("second filtered pass: total %d", total)
	}
	if after := cached.BackendStats(); after.CacheMisses != before.CacheMisses || after.CacheHits != before.CacheHits+4 {
		t.Fatalf("second filtered pass: %d hits, %d misses; want 4 hits, 0 misses",
			after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses)
	}
}

// TestDiskDescriptorLifecycle pins what a disk relation costs in file
// descriptors — one, on its segment, from its first sealed page — and
// every way it gives it back: Table.Close, DB.Close, and the finalizer
// backstop of a backend dropped without Close.
func TestDiskDescriptorLifecycle(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "spill")
	open := func() (targets []string) { // descriptors on files of the spill
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
		}
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, spill) {
				targets = append(targets, target)
			}
		}
		return targets
	}
	engine, err := NewDiskEngine(spill, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	db := NewDBWith(engine)
	var tables []*Table
	for _, name := range []string{"empty", "tailonly", "a", "b"} {
		tbl, err := db.Create(mustSchema(t, name, "part", "n:integer"))
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	fillParts(t, tables[1], 3)
	if got := open(); len(got) != 0 {
		t.Fatalf("tables without a sealed page hold descriptors: %v", got)
	}
	fillParts(t, tables[2], 9)
	fillParts(t, tables[3], 9)
	if got := open(); len(got) != 2 {
		t.Fatalf("two tables with sealed pages hold %v, want one descriptor each", got)
	}
	if err := tables[2].Close(); err != nil {
		t.Fatal(err)
	}
	if got := open(); len(got) != 1 {
		t.Fatalf("after Table.Close: %v, want one descriptor", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := open(); len(got) != 0 {
		t.Fatalf("after DB.Close: %v", got)
	}

	// A backend dropped without Close: the finalizer closes and removes
	// its segment.
	func() {
		fillParts(t, newBackedTable(engine, mustSchema(t, "dropped", "part", "n:integer")), 9)
		if got := open(); len(got) != 1 {
			t.Fatalf("dropped table's segment: %v", got)
		}
	}()
	for i := 0; len(open()) != 0; i++ {
		if i == 200 {
			t.Fatalf("finalizer did not release %v", open())
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if entries, err := os.ReadDir(spill); err != nil || len(entries) != 0 {
		t.Fatalf("spill after the finalizer ran: %v, %v", entries, err)
	}

	// Closing a table after its engine already removed the spill it owns
	// is not an error: the segment being gone is what close wants.
	t.Setenv("TMPDIR", t.TempDir())
	owner, err := NewDiskEngine("", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	late := newBackedTable(owner, mustSchema(t, "late", "part", "n:integer"))
	fillParts(t, late, 9)
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	if err := late.Close(); err != nil {
		t.Fatalf("Close after the engine removed the spill: %v", err)
	}
}

// TestDiskDBSaveLoadRoundTrip proves a whole database round-trips
// through SaveDB/LoadDBWith on the disk engine, and that the restored
// DB equals both the original and a memory-engine restore.
func TestDiskDBSaveLoadRoundTrip(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBWith(engine)
	defer db.Close()
	tbl, err := db.Create(mustSchema(t, "r", "part", "n:integer"))
	if err != nil {
		t.Fatal(err)
	}
	fillParts(t, tbl, 13)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := SaveDB(db, dir); err != nil {
		t.Fatal(err)
	}

	mem, err := LoadDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill2"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := LoadDBWith(dir, engine2)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if !EqualDB(db, mem) || !EqualDB(db, disk) || !EqualDB(mem, disk) {
		t.Fatal("round-tripped databases differ")
	}
	if disk.engine.kind != "disk" {
		t.Fatalf("restored kind = %q", disk.engine.kind)
	}
	// A disk snapshot is the table files and their manifest, nothing
	// derived beside them.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"MANIFEST", "r.tsv"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot directory holds %v, want %v", names, want)
	}
}

// faultyStore is a page store whose put of page failPut fails putFails
// times and whose get of page failGet always fails — the substitute the
// pageStore seam exists for.
type faultyStore struct {
	pageStore
	failPut, putFails, failGet int
}

func (s *faultyStore) put(p int, page []byte) error {
	if p == s.failPut && s.putFails > 0 {
		s.putFails--
		return fmt.Errorf("injected put fault")
	}
	return s.pageStore.put(p, page)
}

func (s *faultyStore) get(p int) ([]byte, error) {
	if p == s.failGet {
		return nil, fmt.Errorf("injected get fault")
	}
	return s.pageStore.get(p)
}

// TestPagedBackendStoreFaults drives the paged backend over each kind of
// store, failing. A put that fails while sealing a page makes that
// Append return the error and leaves the backend exactly as it was
// before the row; the next Append retries the flush. A get that fails
// panics naming the table and the page. The "segment" leg then has a
// real file fail the ways an injected fault cannot: a descriptor that
// cannot write, and a segment cut short behind the store's back.
func TestPagedBackendStoreFaults(t *testing.T) {
	schema := mustSchema(t, "faulty", "part", "n:integer")
	row := func(i int) Tuple { return Tuple{fmt.Sprintf("p%02d", i), int64(i)} }
	for name, inner := range map[string]pageStore{"heap": &heapStore{}, "file": &segmentStore{path: filepath.Join(t.TempDir(), "faulty.seg")}} {
		t.Run(name, func(t *testing.T) {
			store := &faultyStore{pageStore: inner, failPut: 1, putFails: 1, failGet: -1}
			b := newPagedBackend("paged", schema, store, 4, 2)
			state := func() (rows []Tuple) {
				b.Scan(nil, matcher{}, func(tp Tuple) bool {
					rows = append(rows, tp.Clone())
					return true
				})
				if len(rows) != b.Len() {
					t.Fatalf("Scan saw %d rows, Len = %d", len(rows), b.Len())
				}
				for i, tp := range rows {
					if got := b.Get(i); !reflect.DeepEqual(got, tp) {
						t.Fatalf("Get(%d) = %v, Scan saw %v", i, got, tp)
					}
				}
				return rows
			}
			for i := 0; i < 7; i++ {
				if err := appendRow(b, schema, row(i)); err != nil {
					t.Fatal(err)
				}
			}
			wantRows := state() // 1 sealed page + 3-row tail
			// Row 7 fills page 1, whose put fails.
			if err := appendRow(b, schema, row(7)); err == nil || !strings.Contains(err.Error(), "injected put fault") {
				t.Fatalf("Append over a failing put = %v", err)
			}
			if rows := state(); !reflect.DeepEqual(rows, wantRows) || sealedPages(b) != 1 {
				t.Fatalf("failed Append left %d rows, %d pages; want %d, 1",
					len(rows), sealedPages(b), len(wantRows))
			}
			// The retry seals the page.
			if err := appendRow(b, schema, row(7)); err != nil {
				t.Fatalf("retry: %v", err)
			}
			rows := state()
			if len(rows) != 8 || !reflect.DeepEqual(rows[7], row(7)) || sealedPages(b) != 2 {
				t.Fatalf("after retry: %d rows, %d pages", len(rows), sealedPages(b))
			}

			// A page that cannot be read back: cached pages still
			// serve, the lost one panics with its coordinates.
			store.failGet = 1
			b.invalidate()
			if got := b.Get(0); !reflect.DeepEqual(got, row(0)) {
				t.Fatalf("Get(0) = %v", got)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "faulty") || !strings.Contains(msg, "page 1") {
					t.Fatalf("panic %q does not name the table and page", msg)
				}
			}()
			b.Get(5)
			t.Fatal("Get of a lost page returned")
		})
	}
	// The two faults only a real file has.
	t.Run("segment", func(t *testing.T) {
		store := &segmentStore{path: filepath.Join(t.TempDir(), "faulty.seg")}
		b := newPagedBackend("paged", schema, store, 4, 2)
		for i := 0; i < 11; i++ { // 2 sealed pages + 3-row tail
			if err := appendRow(b, schema, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		// A handle that cannot write: sealing page 2 fails, nothing moves,
		// and the retry on the real handle lands where the failure did.
		rw, ends := store.f, append([]int64(nil), store.ends...)
		var err error
		if store.f, err = os.Open(store.path); err != nil {
			t.Fatal(err)
		}
		if err := appendRow(b, schema, row(11)); err == nil {
			t.Fatal("Append over a read-only segment succeeded")
		}
		if b.Len() != 11 || sealedPages(b) != 2 || !reflect.DeepEqual(store.ends, ends) {
			t.Fatalf("failed Append left %d rows, %d pages, directory %v; want 11, 2, %v",
				b.Len(), sealedPages(b), store.ends, ends)
		}
		store.f.Close()
		store.f = rw
		if err := appendRow(b, schema, row(11)); err != nil {
			t.Fatalf("retry: %v", err)
		}
		if info, err := os.Stat(store.path); err != nil || sealedPages(b) != 3 || info.Size() != store.ends[2] {
			t.Fatalf("after retry: %d pages, segment %v (%v), directory %v", sealedPages(b), info, err, store.ends)
		}
		// A segment cut short behind the store's back: the pages before
		// the cut still read, the one across it is lost, by name.
		if err := os.Truncate(store.path, store.ends[2]-1); err != nil {
			t.Fatal(err)
		}
		if got := b.Get(4); !reflect.DeepEqual(got, row(4)) {
			t.Fatalf("Get(4) = %v", got)
		}
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "faulty") || !strings.Contains(msg, "page 2") {
				t.Fatalf("panic %q does not name the table and page", msg)
			}
		}()
		b.Get(9)
		t.Fatal("Get of a truncated page returned")
	})
}

// TestScanPlanConcurrent races filtered reads of known answers over one
// disk table whose pages outnumber its cache: every read takes the scan
// plan and walks the pages through the shared LRU, and each sees exactly
// its own total. Run with -race.
func TestScanPlanConcurrent(t *testing.T) {
	engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	tbl := newBackedTable(engine, whereSchema(t))
	tbl.SetAutoIndex(false) // every read takes the scan plan
	fillWidgets(t, tbl, 64) // 16 pages, grp g0..g7 → 2 pages per group
	reads := []struct {
		preds []Pred
		total int
	}{
		{[]Pred{{Col: 1, Want: "g3"}}, 8},
		{[]Pred{{Col: 0, Want: "p010"}}, 1},
		{[]Pred{{Col: 1, Want: "nope"}}, 0},
		{[]Pred{{Col: 1, Want: "g5"}, {Col: 2, Want: "44"}}, 1},
	}
	const readers, rounds = 8, 150
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rd := reads[r%len(reads)]
			for i := 0; i < rounds; i++ {
				_, total, info := tbl.PageWhereInfo(rd.preds, 0, 3)
				if total != rd.total || info.Plan != "scan" {
					t.Errorf("reader %d round %d: total %d plan %q, want %d scan", r, i, total, info.Plan, rd.total)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// sealedPages reads a paged backend's count of sealed pages.
func sealedPages(b *pagedBackend) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pages
}
