package kbase

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// keyedSchema is a features-shaped relation (cand, seq, feature) with the
// key k on its first columns.
func keyedSchema(t *testing.T, k Key) Schema {
	t.Helper()
	s, err := mustSchema(t, "features", "cand:integer", "seq:integer", "feature").WithKey(k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	ascendingKey = Key{Cols: 2, Ascending: true}
	hashedKey    = Key{Cols: 2}
)

// featureRow is row i of a features relation: three rows a candidate.
func featureRow(i int) Tuple { return Tuple{int64(i / 3), int64(i % 3), fmt.Sprintf("f%d", i%5)} }

func featureRange(lo, hi int) []Tuple {
	var rows []Tuple
	for i := lo; i < hi; i++ {
		rows = append(rows, featureRow(i))
	}
	return rows
}

// wantKeyError checks that err is a *KeyError on table features for the
// key cells (cand, seq).
func wantKeyError(t *testing.T, err error, cand, seq int64, ascending bool) {
	t.Helper()
	var ke *KeyError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %v, want a *KeyError", err)
	}
	want := &KeyError{Table: "features", Columns: []string{"cand", "seq"}, Key: Tuple{cand, seq}, Ascending: ascending}
	if !reflect.DeepEqual(ke, want) {
		t.Fatalf("KeyError = %#v, want %#v", ke, want)
	}
	if msg := ke.Error(); !strings.Contains(msg, "features") || !strings.Contains(msg, fmt.Sprintf("cand=%d, seq=%d", cand, seq)) {
		t.Fatalf("KeyError text %q names neither the table nor the key", msg)
	}
}

func TestWithKeyAndSQL(t *testing.T) {
	base := mustSchema(t, "r", "name", "n:integer", "x:float")
	for _, k := range []Key{{Cols: -1}, {Cols: 4}, {Ascending: true}, {Cols: 1, Ascending: true}, {Cols: 3, Ascending: true}} {
		if _, err := base.WithKey(k); err == nil {
			t.Errorf("WithKey(%+v) accepted", k)
		}
	}
	s, err := base.WithKey(Key{Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := "CREATE TABLE r (\n    name varchar,\n    n integer,\n    x float,\n    PRIMARY KEY (name, n)\n);"
	if got := s.SQL(); got != want {
		t.Errorf("SQL() =\n%s\nwant\n%s", got, want)
	}
	if got := base.SQL(); strings.Contains(got, "PRIMARY KEY") {
		t.Errorf("an unkeyed schema renders a key:\n%s", got)
	}
}

// TestAscendingKeyRefuses: an ascending key refuses a row whose key is
// equal to or below the row before it — inside one batch and across
// batches — and the refused batch adds nothing: Len, membership and the
// last key stay as they were.
func TestAscendingKeyRefuses(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tbl := newBackedTable(t, engine, keyedSchema(t, ascendingKey))
		defer tbl.Close()
		if n, err := tbl.InsertAll(featureRange(0, 10)); err != nil || n != 10 {
			t.Fatalf("InsertAll = %d, %v", n, err)
		}
		for _, tc := range []struct {
			name      string
			rows      []Tuple
			cand, seq int64
		}{
			{"equal to the last stored", []Tuple{featureRow(9)}, 3, 0},
			{"below the last stored", []Tuple{featureRow(4)}, 1, 1},
			{"equal inside the batch", []Tuple{featureRow(10), featureRow(11), featureRow(11)}, 3, 2},
			{"below inside the batch", []Tuple{featureRow(10), featureRow(12), featureRow(11)}, 3, 2},
			{"same key, other feature", []Tuple{{int64(3), int64(0), "other"}}, 3, 0},
		} {
			_, err := tbl.InsertBatch(batchOf(tbl.Schema(), tc.rows))
			wantKeyError(t, err, tc.cand, tc.seq, true)
			if tbl.Len() != 10 || tbl.Contains(featureRow(10)) || !tbl.Contains(featureRow(9)) {
				t.Fatalf("%s: the refused batch changed the table (len %d)", tc.name, tbl.Len())
			}
		}
		// The last key is still row 9's: the next key goes in, row 9's does not.
		if n, err := tbl.Insert(featureRow(10)); err != nil || !n {
			t.Fatalf("Insert(row 10) = %v, %v", n, err)
		}
		_, err := tbl.Insert(featureRow(10))
		wantKeyError(t, err, 3, 1, true)
	})
}

// TestHashedKeyRefuses: a hashed key refuses a repeated key — inside one
// batch and across batches, whatever the other cells — and the refused
// batch adds nothing, neither rows nor index entries.
func TestHashedKeyRefuses(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tbl := newBackedTable(t, engine, keyedSchema(t, hashedKey))
		defer tbl.Close()
		rows := []Tuple{featureRow(7), featureRow(2), featureRow(5), featureRow(0)} // any order
		if n, err := tbl.InsertAll(rows); err != nil || n != 4 {
			t.Fatalf("InsertAll = %d, %v", n, err)
		}
		for _, tc := range []struct {
			name      string
			rows      []Tuple
			cand, seq int64
		}{
			{"stored row", []Tuple{featureRow(1), featureRow(2)}, 0, 2},
			{"stored key, other feature", []Tuple{{int64(2), int64(1), "other"}}, 2, 1},
			{"repeated inside the batch", []Tuple{featureRow(3), featureRow(1), featureRow(3)}, 1, 0},
		} {
			_, err := tbl.InsertBatch(batchOf(tbl.Schema(), tc.rows))
			wantKeyError(t, err, tc.cand, tc.seq, false)
			if tbl.Len() != 4 || tbl.Contains(featureRow(1)) || tbl.Contains(featureRow(3)) {
				t.Fatalf("%s: the refused batch changed the table (len %d)", tc.name, tbl.Len())
			}
		}
		// The refused rows left no index entries behind.
		if n, err := tbl.InsertAll([]Tuple{featureRow(3), featureRow(1)}); err != nil || n != 2 {
			t.Fatalf("InsertAll after the refusals = %d, %v", n, err)
		}
	})
}

// TestKeyedDeleteWhereReinserts is EditLF's path: a hashed key's deleted
// rows can go in again (the index is rebuilt over the survivors' keys),
// and so can an ascending key's deleted tail.
func TestKeyedDeleteWhereReinserts(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		for _, k := range []Key{hashedKey, ascendingKey} {
			tbl := newBackedTable(t, engine, keyedSchema(t, k))
			if _, err := tbl.InsertAll(featureRange(0, 12)); err != nil {
				t.Fatal(err)
			}
			deleted := func(tp Tuple) bool { return tp[0].(int64) >= 2 }
			if k == hashedKey {
				deleted = func(tp Tuple) bool { return tp[1].(int64) == 1 } // one "LF column"
			}
			var again []Tuple
			for _, tp := range featureRange(0, 12) {
				if deleted(tp) {
					again = append(again, tp)
				}
			}
			if n := tbl.DeleteWhere(deleted); n != len(again) {
				t.Fatalf("%+v: DeleteWhere deleted %d rows, want %d", k, n, len(again))
			}
			if n, err := tbl.InsertAll(again); err != nil || n != len(again) || tbl.Len() != 12 {
				t.Fatalf("%+v: re-insert = %d, %v (len %d)", k, n, err, tbl.Len())
			}
			_, err := tbl.Insert(featureRow(11))
			wantKeyError(t, err, 3, 2, k.Ascending)
			tbl.Close()
		}
	})
}

// TestKeyedInsertStopsAtBackendError: when the page store fails to seal
// a page mid-batch, the rows before the failing one stay and the key
// ends at the last stored row: that row's key is refused, the failed
// row's key goes in on the retry.
func TestKeyedInsertStopsAtBackendError(t *testing.T) {
	for _, k := range []Key{ascendingKey, hashedKey} {
		schema := keyedSchema(t, k)
		store := &faultyStore{pageStore: &heapStore{}, failPut: 1, putFails: 1, failGet: -1}
		tbl := newTableWith(schema, newPagedBackend("paged", schema, store, 4, 2))
		n, err := tbl.InsertBatch(batchOf(schema, featureRange(0, 10))) // row 7 fills page 1, whose put fails
		if n != 7 || err == nil || !strings.Contains(err.Error(), "injected put fault") {
			t.Fatalf("%+v: InsertBatch over a failing put = %d, %v", k, n, err)
		}
		_, err = tbl.Insert(featureRow(6))
		wantKeyError(t, err, 2, 0, k.Ascending)
		if n, err := tbl.InsertAll(featureRange(7, 10)); err != nil || n != 3 || tbl.Len() != 10 {
			t.Fatalf("%+v: the retry = %d, %v (len %d)", k, n, err, tbl.Len())
		}
		if !reflect.DeepEqual(tbl.Tuples(), featureRange(0, 10)) {
			t.Fatalf("%+v: rows after the retry = %v", k, tbl.Tuples())
		}
	}
}

// TestKeyedContainsDeleteMatchUnkeyed: Contains and Delete on a keyed
// table give the answers an unkeyed table holding the same rows gives,
// for the same probes: stored rows, a stored key with other cells, keys
// before, between and after the stored ones, and cross-type probes that
// render like a stored row or do not.
func TestKeyedContainsDeleteMatchUnkeyed(t *testing.T) {
	rows := []Tuple{}
	for i := 0; i < 40; i += 2 { // every other key, so there are gaps
		rows = append(rows, featureRow(i))
	}
	probes := append([]Tuple{
		{int64(0), int64(1), "f1"},  // a gap
		{int64(-1), int64(0), "f0"}, // before the first
		{int64(99), int64(0), "f0"}, // after the last
		{int64(2), int64(0), "f0"},  // stored key (row 6 is (2, 0, f1)), other feature
		{2, 0, "f1"},                // ints widen
		{"2", "0", "f1"},            // strings that render like the row
		{2.0, int32(0), "f1"},       // a float and an int32 that render like it
		{"02", 0, "f1"},             // not the canonical rendering
		{2, 0},                      // the wrong width
		{"f1", 2, 0},                // the wrong types
	}, rows...)
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tables := map[string]*Table{}
		for name, k := range map[string]Key{"unkeyed": {}, "ascending": ascendingKey, "hashed": hashedKey} {
			tables[name] = newBackedTable(t, engine, keyedSchema(t, k))
			defer tables[name].Close()
			if _, err := tables[name].InsertAll(rows); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range probes {
			want := tables["unkeyed"].Contains(p)
			for _, name := range []string{"ascending", "hashed"} {
				if got := tables[name].Contains(p); got != want {
					t.Errorf("%s: Contains(%#v) = %v, the unkeyed table says %v", name, p, got, want)
				}
			}
		}
		for _, p := range probes {
			want := tables["unkeyed"].Delete(p)
			for _, name := range []string{"ascending", "hashed"} {
				if got := tables[name].Delete(p); got != want {
					t.Errorf("%s: Delete(%#v) = %v, the unkeyed table says %v", name, p, got, want)
				}
				if !reflect.DeepEqual(tables[name].Tuples(), tables["unkeyed"].Tuples()) {
					t.Fatalf("%s: after Delete(%#v) the rows differ from the unkeyed table's", name, p)
				}
			}
		}
		if tables["unkeyed"].Len() != 0 {
			t.Fatalf("the probes left %d rows", tables["unkeyed"].Len())
		}
	})
}

// TestLoadDBIntoDeclaredKeys: LoadDBWith loads a table whose header
// matches a declared schema under it, key included — so a snapshot that
// repeats a key is refused with the *KeyError — and any other table as its
// header says.
func TestLoadDBIntoDeclaredKeys(t *testing.T) {
	schema := keyedSchema(t, ascendingKey)
	db := NewDB()
	tbl, err := db.Create(schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertAll(featureRange(0, 6)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := SaveDB(db, dir); err != nil {
		t.Fatal(err)
	}
	other := mustSchema(t, "features", "cand:integer", "seq:integer") // another header
	for _, declared := range [][]Schema{nil, {other}, {schema}} {
		loaded, err := LoadDBWith(dir, MemoryEngine{}, declared...)
		if err != nil {
			t.Fatal(err)
		}
		keyed := len(declared) > 0 && declared[0].Key.Cols > 0
		if got := loaded.Table("features").Schema().Key; (got == ascendingKey) != keyed {
			t.Errorf("declared %v: the table loaded with key %+v", declared, got)
		}
		if !EqualDB(loaded, db) {
			t.Errorf("declared %v: the loaded database differs", declared)
		}
		loaded.Close()
	}

	path := filepath.Join(dir, "features.tsv")
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:3], "")+lines[2]+strings.Join(lines[3:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := LoadDBWith(dir, MemoryEngine{}); err != nil { // a set drops the copy
		t.Fatalf("unkeyed load: %v", err)
	} else if loaded.Table("features").Len() != 6 {
		t.Fatalf("unkeyed load holds %d rows, want 6", loaded.Table("features").Len())
	}
	_, err = LoadDBWith(dir, MemoryEngine{}, schema)
	wantKeyError(t, err, 0, 1, true)
}

// TestKeyedContainsConcurrentWithInsert: on a table with an ascending
// key, Contains reads only the backend, so it may run beside InsertBatch
// (run it with -race): readers probe the rows stored before they started,
// which they must find, and keys above any the writer will reach, which
// they must not.
func TestKeyedContainsConcurrentWithInsert(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tbl := newBackedTable(t, engine, keyedSchema(t, ascendingKey))
		defer tbl.Close()
		const stored, written = 60, 600
		if _, err := tbl.InsertAll(featureRange(0, stored)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := stored; lo < stored+written; lo += 7 {
				if _, err := tbl.InsertBatch(batchOf(tbl.Schema(), featureRange(lo, min(lo+7, stored+written)))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; i < 400; i += 4 {
					if !tbl.Contains(featureRow(i%stored)) || tbl.Contains(featureRow(stored+written+i)) {
						t.Errorf("reader %d: Contains is wrong about row %d", r, i)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		if tbl.Len() != stored+written {
			t.Fatalf("len %d, want %d", tbl.Len(), stored+written)
		}
	})
}
