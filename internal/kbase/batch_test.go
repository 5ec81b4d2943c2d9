package kbase

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// batchOf builds a batch the way a producer does, through the exported
// appenders: each cell goes to the vector of its own Go type, so a cell
// that does not match its column makes a batch InsertBatch refuses.
func batchOf(schema Schema, rows []Tuple) *Batch {
	b := NewBatch(schema, len(rows))
	for _, tp := range rows {
		for c, v := range tp {
			switch x := v.(type) {
			case string:
				b.AppendString(c, x)
			case int:
				b.AppendInt(c, int64(x))
			case int64:
				b.AppendInt(c, x)
			case float64:
				b.AppendFloat(c, x)
			default:
				panic(fmt.Sprintf("batchOf: cell %v (%T)", v, v))
			}
		}
	}
	return b
}

// insertPaths are the table's two entry points under one signature:
// tuples through the InsertAll adapter, and a producer-built batch
// through InsertBatch.
type insertFunc func(*Table, []Tuple) (int, error)

var insertPaths = map[string]insertFunc{
	"InsertAll":   (*Table).InsertAll,
	"InsertBatch": func(tbl *Table, rows []Tuple) (int, error) { return tbl.InsertBatch(batchOf(tbl.Schema(), rows)) },
}

// forEachInsertPath runs fn on every backend, as forEachBackend does, once
// per entry point, each in a subtest of the backend's.
func forEachInsertPath(t *testing.T, fn func(t *testing.T, engine *Engine, insert insertFunc)) {
	t.Helper()
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		for path, insert := range insertPaths {
			t.Run(path, func(t *testing.T) { fn(t, engine, insert) })
		}
	})
}

// batchRow reads row r of a batch back as a normalized tuple.
func batchRow(schema Schema, b *Batch, r int) Tuple {
	tp := make(Tuple, len(b.cols))
	for c, col := range schema.Columns {
		switch col.Type {
		case IntCol:
			tp[c] = b.cols[c].ints[r]
		case FloatCol:
			tp[c] = b.cols[c].floats[r]
		default:
			tp[c] = b.cols[c].strs[r]
		}
	}
	return tp
}

// parseTupleFields is one snapshot line's fields as the reader parses
// them — appendFields into a batch — read back as a row.
func parseTupleFields(schema Schema, parts []string) (Tuple, error) {
	b := NewBatch(schema, 1)
	if err := b.appendFields(schema, parts); err != nil {
		return nil, err
	}
	return batchRow(schema, b, 0), nil
}

// viewOf stores rows, a page of them at most, in a fresh memory-kind
// backend and returns the page that holds them.
func viewOf(schema Schema, rows []Tuple) pageView {
	b := newPagedBackend("memory", schema, nil, defaultPageRows, 0)
	all := make([]int, len(rows))
	for i := range all {
		all[i] = i
	}
	if _, err := b.Append(batchOf(schema, rows), all); err != nil {
		panic(err)
	}
	return b.openView(&b.pageSeq, 0)
}

// tuplesOf reads a page's rows back as tuples.
func tuplesOf(v *pageView) []Tuple {
	out := make([]Tuple, v.n)
	for i := range out {
		out[i] = make(Tuple, len(v.l.types))
		v.fill(out[i], i)
	}
	return out
}

// appendRow appends one tuple to a bare backend.
func appendRow(b *pagedBackend, schema Schema, tp Tuple) error {
	_, err := b.Append(batchOf(schema, []Tuple{tp}), []int{0})
	return err
}

// TestInsertBatchMatchesInsertAll feeds seeded random typed rows — NaN
// payloads, -0, empty strings, the NUL-aliasing pair, duplicates of
// stored rows and inside one batch — to three tables per engine: one row
// at a time through Insert, in batches through InsertAll, and the same
// batches through InsertBatch. Each batch reports the same added count,
// and the tables end with the same length, the same snapshot bytes and
// the same membership answers.
func TestInsertBatchMatchesInsertAll(t *testing.T) {
	schema := mustSchema(t, "m", "a", "b", "n:integer", "f:float")
	strs := []string{"", "a", "a\x00b", "b\x00c", "c", "tab\tnl\n", "\xff"}
	floats := []float64{
		0, math.Copysign(0, -1), 1.5, math.Inf(1), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), // two NaNs: one dedup key
	}
	rng := rand.New(rand.NewSource(24))
	row := func() Tuple {
		return Tuple{strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))], int64(rng.Intn(3) - 1), floats[rng.Intn(len(floats))]}
	}
	var batches [][]Tuple
	for k := 0; k < 40; k++ {
		batch := make([]Tuple, rng.Intn(60))
		for i := range batch {
			if batch[i] = row(); i > 0 && rng.Intn(4) == 0 {
				batch[i] = batch[rng.Intn(i)] // a duplicate inside the batch
			}
		}
		batches = append(batches, batch)
	}
	batches = append(batches, []Tuple{{"a\x00b", "c", int64(9), 0.5}, {"a", "b\x00c", int64(9), 0.5}}, nil)

	forEachBackend(t, func(t *testing.T, engine *Engine) {
		one, all, typed := newBackedTable(engine, schema), newBackedTable(engine, schema), newBackedTable(engine, schema)
		defer one.Close()
		defer all.Close()
		defer typed.Close()
		for k, batch := range batches {
			want := 0
			for _, tp := range batch {
				added, err := one.Insert(tp)
				if err != nil {
					t.Fatal(err)
				}
				if added {
					want++
				}
			}
			if got, err := all.InsertAll(batch); err != nil || got != want {
				t.Fatalf("batch %d: InsertAll = %d, %v; row at a time added %d", k, got, err, want)
			}
			if got, err := typed.InsertBatch(batchOf(schema, batch)); err != nil || got != want {
				t.Fatalf("batch %d: InsertBatch = %d, %v; row at a time added %d", k, got, err, want)
			}
		}
		var want bytes.Buffer
		if err := one.WriteTSV(&want); err != nil {
			t.Fatal(err)
		}
		for name, tbl := range map[string]*Table{"InsertAll": all, "InsertBatch": typed} {
			var got bytes.Buffer
			if err := tbl.WriteTSV(&got); err != nil {
				t.Fatal(err)
			}
			if tbl.Len() != one.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: %d rows, Insert %d; snapshots differ:\n%q\n%q", name, tbl.Len(), one.Len(), got.Bytes(), want.Bytes())
			}
			for i := 0; i < 400; i++ {
				if tp := row(); tbl.Contains(tp) != one.Contains(tp) {
					t.Fatalf("%s: Contains(%q) = %v, Insert's table says %v", name, tp, tbl.Contains(tp), one.Contains(tp))
				}
			}
		}
		if one.Len() < 100 {
			t.Fatalf("only %d distinct rows: the generator is not exercising the path", one.Len())
		}
	})
}

// TestInsertBatchRefusesMistypedBatch: the type check is per column and
// comes first — a batch with a cell in the wrong vector, or with ragged
// columns, adds nothing.
func TestInsertBatchRefusesMistypedBatch(t *testing.T) {
	schema := mustSchema(t, "m", "k", "n:integer")
	tbl := NewTable(schema)
	bad := batchOf(schema, []Tuple{{"a", 1}, {"b", "not an int"}})
	if n, err := tbl.InsertBatch(bad); err == nil || n != 0 || tbl.Len() != 0 || !strings.Contains(err.Error(), "m.n") {
		t.Fatalf("InsertBatch(mistyped) = %d, %v; table holds %d rows", n, err, tbl.Len())
	}
	ragged := batchOf(schema, []Tuple{{"a", 1}})
	ragged.AppendString(0, "b")
	if n, err := tbl.InsertBatch(ragged); err == nil || n != 0 || tbl.Len() != 0 {
		t.Fatalf("InsertBatch(ragged) = %d, %v; table holds %d rows", n, err, tbl.Len())
	}
	if n, err := tbl.InsertBatch(NewBatch(mustSchema(t, "other", "k"), 0)); err == nil || n != 0 {
		t.Fatalf("InsertBatch(another arity) = %d, %v", n, err)
	}
	if n, err := tbl.InsertBatch(batchOf(schema, []Tuple{{"a", 1}})); err != nil || n != 1 {
		t.Fatalf("InsertBatch after the refusals = %d, %v", n, err)
	}
}

// TestInsertBatchStopsAtBackendError: when the store under a paged table
// fails to take the page a batch fills, InsertBatch returns the error and
// how many rows it stored, those rows stay — readable, members — and the
// rest of the batch is no member; offering the batch again retries the
// flush, adds exactly the rest, and the table ends as if nothing had
// failed.
func TestInsertBatchStopsAtBackendError(t *testing.T) {
	schema := mustSchema(t, "faulty", "part", "n:integer")
	row := func(i int) Tuple { return Tuple{fmt.Sprintf("p%02d", i), int64(i)} }
	var batch []Tuple
	for i := 0; i < 11; i++ {
		batch = append(batch, row(i), row(i/2)) // every row, and an earlier one again
	}
	stores := map[string]func(t *testing.T) pageStore{
		"heap": func(*testing.T) pageStore { return &heapStore{} },
		"file": func(t *testing.T) pageStore { return &segmentStore{path: filepath.Join(t.TempDir(), "faulty.seg")} },
	}
	for name, inner := range stores {
		for path, insert := range insertPaths {
			t.Run(name+"/"+path, func(t *testing.T) {
				store := &faultyStore{pageStore: inner(t), failPut: 1, putFails: 1, failGet: -1}
				tbl := newTableWith(schema, newPagedBackend("paged", schema, store, 4, 2))
				defer tbl.Close()
				// Page 1 is rows 4–7: row 7 fills it, its put fails.
				added, err := insert(tbl, batch)
				if err == nil || !strings.Contains(err.Error(), "injected put fault") || added != 7 {
					t.Fatalf("insert over a failing put = %d, %v; want 7 rows and the fault", added, err)
				}
				for i := 0; i < 11; i++ {
					if got := tbl.Contains(row(i)); got != (i < 7) {
						t.Fatalf("after the fault Contains(row %d) = %v", i, got)
					}
				}
				if got := tbl.Tuples(); tbl.Len() != 7 || !reflect.DeepEqual(got, batch2rows(batch)[:7]) {
					t.Fatalf("after the fault the table holds %v", got)
				}
				if added, err := insert(tbl, batch); err != nil || added != 4 {
					t.Fatalf("retry = %d, %v; want the 4 rows that were left", added, err)
				}
				if got := tbl.Tuples(); !reflect.DeepEqual(got, batch2rows(batch)) || sealedPages(tbl.be) != 2 {
					t.Fatalf("after the retry: %d pages, rows %v", sealedPages(tbl.be), got)
				}
				if added, err := insert(tbl, batch); err != nil || added != 0 {
					t.Fatalf("a third offer = %d, %v; want all duplicates", added, err)
				}
			})
		}
	}
}

// batch2rows is the distinct rows of a batch in first-occurrence order:
// what a table that was offered it holds.
func batch2rows(batch []Tuple) []Tuple {
	var out []Tuple
	seen := map[string]bool{}
	for _, tp := range batch {
		if key := encodeTupleTSV(tp); !seen[key] {
			seen[key] = true
			out = append(out, tp)
		}
	}
	return out
}
