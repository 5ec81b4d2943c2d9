package kbase

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// renderedKeyHash is the dedup hash as it was defined before the typed
// kernel: FNV-1a over every cell rendered with %v, joined by NUL bytes.
func renderedKeyHash(tp Tuple) uint64 {
	parts := make([]string, len(tp))
	for i, v := range tp {
		parts[i] = fmt.Sprintf("%v", v)
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, strings.Join(parts, "\x00"))
	return h.Sum64()
}

// FuzzHashTuple pins hashTuple to the rendered-key definition for the
// three stored cell types (and an int, which hashes as its int64).
func FuzzHashTuple(f *testing.F) {
	fuzzSeeds(f)
	f.Add("a\x00b", "", int64(-0), math.Float64bits(math.NaN()))
	f.Add("", "\x00", int64(1e18), math.Float64bits(math.Inf(-1)))
	f.Add("1", "2", int64(12), math.Float64bits(1e-7))
	f.Add("x", "y", int64(255), math.Float64bits(123456789))
	f.Add("x", "y", int64(256), math.Float64bits(5e-324))
	f.Fuzz(func(t *testing.T, a, b string, n int64, fbits uint64) {
		x := math.Float64frombits(fbits)
		for _, tp := range []Tuple{
			{a, b, n, x},
			{x, n, b, a},
			{a},
			{n},
			{x},
			{a, int(n)},
			{},
		} {
			if got, want := hashTuple(tp), renderedKeyHash(tp); got != want {
				t.Fatalf("hashTuple(%#v) = %#x, FNV-1a of the rendered key is %#x", tp, got, want)
			}
		}
		// The insert path hashes a batch a column at a time: every row's
		// hash is hashTuple of that row, wherever it sits in the batch.
		schema, _ := NewSchema("h", "a", "n:integer", "x:float", "b")
		rows := []Tuple{{a, n, x, b}, {b, -n, -x, a}, {"", int64(0), 0.0, ""}, {a, n, x, b}}
		for r, h := range batchOf(schema, rows).hash(nil) {
			if want := hashTuple(rows[r]); h != want {
				t.Fatalf("batch hash of row %d %#v = %#x, hashTuple = %#x", r, rows[r], h, want)
			}
		}
	})
}

// TestHashTupleUntypedCells covers the cells only Contains and Delete
// can see (they do not type-check): they hash and compare as rendered.
func TestHashTupleUntypedCells(t *testing.T) {
	for _, tp := range []Tuple{{int32(7), true}, {nil, "x"}, {float32(1.5)}, {[]byte("ab")}} {
		if got, want := hashTuple(tp), renderedKeyHash(tp); got != want {
			t.Errorf("hashTuple(%#v) = %#x, want %#x", tp, got, want)
		}
	}
	tbl := NewTable(mustSchema(t, "n", "v:integer", "s"))
	if _, err := tbl.Insert(Tuple{7, "true"}); err != nil {
		t.Fatal(err)
	}
	if !tbl.Contains(Tuple{int32(7), true}) {
		t.Error("a probe that renders like a stored row must be found")
	}
	if tbl.Contains(Tuple{int32(8), true}) || tbl.Contains(Tuple{7}) {
		t.Error("a probe that renders differently, or of the wrong width, must not be found")
	}
	if !deleteTuple(tbl, Tuple{int32(7), true}) || tbl.Len() != 0 {
		t.Error("Delete must remove the row its probe renders like")
	}
}

// TestDedupNulAliasing is the regression test for the joined-key bug:
// ("a\x00b", "c") and ("a", "b\x00c") join to the same bytes, so the
// second insert used to be dropped as a duplicate of the first.
func TestDedupNulAliasing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, mustSchema(t, "pairs", "x", "y"))
		defer tbl.Close()
		left, right := Tuple{"a\x00b", "c"}, Tuple{"a", "b\x00c"}
		if hashTuple(left) != hashTuple(right) {
			t.Fatal("the two rows are meant to share a hash")
		}
		for _, tp := range []Tuple{left, right} {
			if added, err := tbl.Insert(tp); err != nil || !added {
				t.Fatalf("Insert(%q) = %v, %v; want it added", tp, added, err)
			}
		}
		if added, _ := tbl.Insert(Tuple{"a", "b\x00c"}); added || tbl.Len() != 2 {
			t.Fatalf("a true duplicate was added (len %d)", tbl.Len())
		}
		if !tbl.Contains(left) || !tbl.Contains(right) || tbl.Contains(Tuple{"a\x00b\x00c", ""}) {
			t.Fatal("Contains does not tell the aliased rows apart")
		}
		if !deleteTuple(tbl, left) || tbl.Contains(left) || !tbl.Contains(right) || tbl.Len() != 1 {
			t.Fatal("Delete must remove exactly the row it was given")
		}
	})
}

// TestDedupForcedCollisions narrows the dedup hash to two bits, so every
// probe walks a chain of colliding rows: membership must still be decided
// by the stored rows, on every engine, including after DeleteWhere has
// re-packed the positions the index points at.
func TestDedupForcedCollisions(t *testing.T) {
	old := dedupHashMask
	dedupHashMask = 3
	defer func() { dedupHashMask = old }()

	forEachInsertPath(t, func(t *testing.T, engine *Engine, insert insertFunc) {
		tbl := newBackedTable(engine, mustSchema(t, "c", "k", "n:integer", "f:float"))
		defer tbl.Close()
		row := func(i int) Tuple { return Tuple{fmt.Sprintf("k%d", i%17), int64(i), float64(i%5) / 4} }
		const n = 150
		var batch []Tuple
		for i := 0; i < n; i++ {
			batch = append(batch, row(i), row(i/2)) // every row, and an earlier one again
		}
		if added, err := insert(tbl, batch); err != nil || added != n {
			t.Fatalf("insert added %d rows, %v; want %d", added, err, n)
		}
		check := func(present func(i int) bool) {
			t.Helper()
			want := 0
			for i := 0; i < n+20; i++ {
				p := i < n && present(i)
				if p {
					want++
				}
				if got := tbl.Contains(row(i)); got != p {
					t.Fatalf("Contains(row %d) = %v, want %v", i, got, p)
				}
			}
			if tbl.Len() != want {
				t.Fatalf("table holds %d rows, want %d", tbl.Len(), want)
			}
		}
		check(func(int) bool { return true })

		if deleted := tbl.DeleteWhere(func(tp Tuple) bool { return tp[1].(int64)%3 == 0 }); deleted != n/3 {
			t.Fatalf("DeleteWhere removed %d rows, want %d", deleted, n/3)
		}
		check(func(i int) bool { return i%3 != 0 })
		// Survivors are still duplicates, the deleted rows are new again.
		if added, err := insert(tbl, batch); err != nil || added != n/3 {
			t.Fatalf("re-inserting everything added %d rows, %v; want %d", added, err, n/3)
		}
		check(func(int) bool { return true })
		if !deleteTuple(tbl, row(7)) || deleteTuple(tbl, row(7)) {
			t.Fatal("Delete must remove row 7 once")
		}
		check(func(i int) bool { return i != 7 })
	})
}

// TestInsertAllMatchesInsert: a batch is its tuples inserted one by one
// — same rows, same order, same count, and the same stop at the first
// rejected tuple with everything before it kept.
func TestInsertAllMatchesInsert(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		schema := mustSchema(t, "m", "k", "n:integer")
		one, all := newBackedTable(engine, schema), newBackedTable(engine, schema)
		defer one.Close()
		defer all.Close()
		rng := rand.New(rand.NewSource(5))
		var batch []Tuple
		for i := 0; i < 300; i++ {
			batch = append(batch, Tuple{fmt.Sprintf("k%d", rng.Intn(40)), rng.Intn(6)})
		}
		batch = append(batch, Tuple{"bad", "not an int"}, Tuple{"after", 1})
		wantAdded := 0
		var wantErr error
		for _, tp := range batch {
			added, err := one.Insert(tp)
			if err != nil {
				wantErr = err
				break
			}
			if added {
				wantAdded++
			}
		}
		added, err := all.InsertAll(batch)
		if added != wantAdded || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("InsertAll = %d, %v; one by one = %d, %v", added, err, wantAdded, wantErr)
		}
		if !reflect.DeepEqual(one.Tuples(), all.Tuples()) || all.Contains(Tuple{"after", 1}) {
			t.Fatal("the batch and the one-by-one table differ")
		}
		if _, err := all.InsertAll([]Tuple{{"short"}}); err == nil {
			t.Fatal("a tuple of the wrong width must be rejected")
		}
	})
}

// TestInsertAllDoesNotAliasCaller: stored rows are the table's own, so a
// caller may reuse its tuples, and rows cut from one slab stay apart.
func TestInsertAllDoesNotAliasCaller(t *testing.T) {
	tbl := NewTable(mustSchema(t, "a", "k", "n:integer"))
	batch := []Tuple{{"x", 1}, {"y", 2}, {"z", 3}}
	if _, err := tbl.InsertAll(batch); err != nil {
		t.Fatal(err)
	}
	batch[1][0] = "mutated"
	tbl.Scan(func(tp Tuple) bool {
		_ = append(tp, "grown") // must not spill into the next row's cells
		return true
	})
	want := [][2]any{{"x", int64(1)}, {"y", int64(2)}, {"z", int64(3)}}
	for i, tp := range tbl.Tuples() {
		if tp[0] != want[i][0] || tp[1] != want[i][1] {
			t.Fatalf("row %d = %v, want %v", i, tp, want[i])
		}
	}
}

// TestDedupIndexGrowth walks the index through many resizes one row at a
// time and checks the load bounds its size claim rests on.
func TestDedupIndexGrowth(t *testing.T) {
	var d dedupIndex
	for i := 0; i < 50000; i++ {
		d.add(hashTuple(Tuple{int64(i)}), i)
		if i >= 64 {
			if load := float64(d.n) / float64(len(d.slots)); load > 0.75 || load < 0.5 {
				t.Fatalf("after %d rows the load is %.3f (%d slots)", d.n, load, len(d.slots))
			}
		}
	}
	seen := map[int]bool{}
	for _, s := range d.slots {
		if s != 0 {
			seen[int(uint32(s))-1] = true
		}
	}
	if len(seen) != 50000 {
		t.Fatalf("%d positions survived the resizes, want 50000", len(seen))
	}
}

// deleteTuple is the exact-tuple delete over DeleteWhere: it removes the
// stored row whose every cell renders as tp's does (its dedup key) and
// reports whether there was one.
func deleteTuple(t *Table, tp Tuple) bool {
	return t.DeleteWhere(func(row Tuple) bool {
		for i, cell := range row {
			if renderCell(cell) != renderCell(tp[i]) {
				return false
			}
		}
		return true
	}) == 1
}
