package kbase

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// whereSchema is the filtered-read test relation: a unique part id, a
// low-cardinality group, an int and a float.
func whereSchema(t *testing.T) Schema {
	t.Helper()
	return mustSchema(t, "widgets", "part", "grp", "n:integer", "score:float")
}

// fillWidgets inserts n deterministic rows: part "p<i>" unique, grp
// "g<i/8>" clustered so whole disk pages share a group, n = i,
// score = i/2.0.
func fillWidgets(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		added, err := tbl.Insert(Tuple{fmt.Sprintf("p%03d", i), fmt.Sprintf("g%d", i/8), i, float64(i) / 2})
		if err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", i, added, err)
		}
	}
}

// legacyFilterPage reproduces the serving layer's pre-pushdown read:
// full Scan, fmt.Sprint per cell, materialize matches, then slice the
// window. It is the semantic reference every plan must match
// bit-for-bit.
func legacyFilterPage(tbl *Table, preds []Pred, offset, limit int) ([]Tuple, int) {
	var matches []Tuple
	tbl.Scan(func(tp Tuple) bool {
		for _, p := range preds {
			if p.Col < 0 || p.Col >= len(tp) || fmt.Sprint(tp[p.Col]) != p.Want {
				return true
			}
		}
		matches = append(matches, tp.Clone())
		return true
	})
	total := len(matches)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	hi := total
	if limit > 0 && limit < hi-offset {
		hi = offset + limit
	}
	window := matches[offset:hi]
	if len(window) == 0 {
		return nil, total
	}
	return window, total
}

// whereConfig is one engine+plan configuration of the equivalence
// grid.
type whereConfig struct {
	name  string
	make  func(t *testing.T) *Table
	setup func(t *testing.T, tbl *Table) // plan knobs after (re)build
}

func whereConfigs(t *testing.T) []whereConfig {
	t.Helper()
	newDisk := func(t *testing.T) *Table {
		engine, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.Close() })
		return newBackedTable(engine, whereSchema(t))
	}
	newColumnar := func(t *testing.T) *Table {
		return newBackedTable(NewColumnarEngine(4, 2), whereSchema(t))
	}
	return []whereConfig{
		{
			name: "memory",
			make: func(t *testing.T) *Table { return newBackedTable(memoryEngine, whereSchema(t)) },
		},
		{
			// Auto planner: early reads scan, hot columns flip to index
			// plans mid-grid — results must not move.
			name: "disk",
			make: newDisk,
		},
		{
			name:  "disk+index",
			make:  newDisk,
			setup: func(t *testing.T, tbl *Table) { mustEnsureIndex(t, tbl, "grp", "part", "n", "score") },
		},
		{
			name:  "disk+scan-only",
			make:  newDisk,
			setup: func(t *testing.T, tbl *Table) { tbl.SetAutoIndex(false) },
		},
		{
			// Same three plan shapes on the columnar engine: auto planner
			// flips, forced indexes, and scans alone.
			name: "columnar",
			make: newColumnar,
		},
		{
			name:  "columnar+index",
			make:  newColumnar,
			setup: func(t *testing.T, tbl *Table) { mustEnsureIndex(t, tbl, "grp", "part", "n", "score") },
		},
		{
			name:  "columnar+scan-only",
			make:  newColumnar,
			setup: func(t *testing.T, tbl *Table) { tbl.SetAutoIndex(false) },
		},
	}
}

func mustEnsureIndex(t *testing.T, tbl *Table, cols ...string) {
	t.Helper()
	for _, c := range cols {
		if err := tbl.EnsureIndex(c); err != nil {
			t.Fatal(err)
		}
	}
}

// whereGrid exercises every filter/pagination combination against the
// legacy reference and fails on the first divergence.
func whereGrid(t *testing.T, ref, tbl *Table, stage string) {
	t.Helper()
	predSets := [][]Pred{
		{{Col: 1, Want: "g1"}},                         // clustered: whole pages match
		{{Col: 0, Want: "p010"}},                       // unique value
		{{Col: 2, Want: "17"}},                         // int equality
		{{Col: 3, Want: "3.5"}},                        // float equality (rendered)
		{{Col: 1, Want: "g2"}, {Col: 2, Want: "18"}},   // conjunction
		{{Col: 1, Want: "nope"}},                       // no matches
		{{Col: 2, Want: "007"}},                        // non-canonical int probe
		{{Col: 2, Want: "x"}},                          // unparsable int probe
		{{Col: 1, Want: "g0"}, {Col: 0, Want: "p099"}}, // cross-page contradiction
		{{Col: 2, Want: "17"}, {Col: 1, Want: "g2"}},   // caller order reversed
		{}, // empty conjunction
	}
	pages := []struct{ offset, limit int }{
		{0, 0}, {0, -1}, {0, 1}, {0, 3}, {1, 2}, {3, 100}, {-2, 2}, {1000, 5},
	}
	for pi, preds := range predSets {
		for _, pg := range pages {
			gotRows, gotTotal := tbl.PageWhere(preds, pg.offset, pg.limit)
			wantRows, wantTotal := legacyFilterPage(ref, preds, pg.offset, pg.limit)
			if gotTotal != wantTotal || !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("%s: PageWhere preds#%d offset=%d limit=%d: got (%v, %d) want (%v, %d)",
					stage, pi, pg.offset, pg.limit, gotRows, gotTotal, wantRows, wantTotal)
			}
		}
	}
}

// TestFilteredReadEquivalence proves every engine+plan configuration
// returns bit-identical filtered reads through initial fill,
// DeleteWhere re-pack, and snapshot restore — the tentpole's
// engine-invariance contract.
func TestFilteredReadEquivalence(t *testing.T) {
	const rows = 40 // 10 pages at pageRows=4, plus no tail; groups span 5 values
	ref := newBackedTable(memoryEngine, whereSchema(t))
	fillWidgets(t, ref, rows)

	for _, cfg := range whereConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			tbl := cfg.make(t)
			fillWidgets(t, tbl, rows)
			if cfg.setup != nil {
				cfg.setup(t, tbl)
			}
			whereGrid(t, ref, tbl, "fill")
			// Run the grid twice: the auto config flips hot columns to
			// index plans between passes, which must not change results.
			whereGrid(t, ref, tbl, "fill-repeat")

			// DeleteWhere re-pack: drop every third row, indexes
			// rebuild.
			refDel := newBackedTable(memoryEngine, whereSchema(t))
			drop := func(tp Tuple) bool { return tp[2].(int64)%3 == 0 }
			ref.Scan(func(tp Tuple) bool {
				if !drop(tp) {
					if _, err := refDel.Insert(tp.Clone()); err != nil {
						t.Fatal(err)
					}
				}
				return true
			})
			if n := tbl.DeleteWhere(drop); n == 0 {
				t.Fatal("DeleteWhere removed nothing")
			}
			if cfg.setup != nil {
				cfg.setup(t, tbl)
			}
			whereGrid(t, refDel, tbl, "post-delete")

			// Snapshot restore: SaveDB + LoadDBWith through the same
			// engine kind, then re-run the grid on the restored table.
			db := NewDB()
			if err := db.Attach(tbl); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(t.TempDir(), "snap")
			if err := SaveDB(db, snap); err != nil {
				t.Fatal(err)
			}
			engine := memoryEngine
			switch tbl.be.kind {
			case "disk":
				var err error
				engine, err = NewDiskEngine(filepath.Join(t.TempDir(), "spill2"), 4, 2)
				if err != nil {
					t.Fatal(err)
				}
			case "columnar":
				engine = NewColumnarEngine(4, 2)
			}
			restored, err := LoadDBWith(snap, engine)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			rt := restored.Table("widgets")
			if rt == nil {
				t.Fatal("restored snapshot lost widgets")
			}
			if cfg.setup != nil {
				cfg.setup(t, rt)
			}
			whereGrid(t, refDel, rt, "post-restore")
		})
	}
}

// TestIndexLifecycle covers lazy builds, heat-based auto selection,
// invalidation on mutation, and the size cap.
func TestIndexLifecycle(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, whereSchema(t))
		fillWidgets(t, tbl, 24)

		// EnsureIndex: first filtered read builds and uses the index.
		mustEnsureIndex(t, tbl, "grp")
		rows, total, info := tbl.PageWhereInfo([]Pred{{Col: 1, Want: "g1"}}, 0, 0)
		if total != 8 || len(rows) != 8 || info.Plan != "index" {
			t.Fatalf("indexed read: %d rows, total %d, plan %q", len(rows), total, info.Plan)
		}

		// Mutation invalidates; the next read rebuilds and stays right.
		if added, err := tbl.Insert(Tuple{"extra", "g1", 99, 0.5}); err != nil || !added {
			t.Fatalf("insert: %v %v", added, err)
		}
		tbl.plan.mu.Lock()
		if len(tbl.plan.idx) != 0 {
			tbl.plan.mu.Unlock()
			t.Fatal("insert did not invalidate built indexes")
		}
		tbl.plan.mu.Unlock()
		rows, total = tbl.PageWhere([]Pred{{Col: 1, Want: "g1"}}, 0, 0)
		if total != 9 || len(rows) != 9 || rows[8][0] != "extra" {
			t.Fatalf("post-insert indexed read: %d rows, total %d", len(rows), total)
		}

		// Heat-based auto selection: a cold column scans twice, then
		// flips to an index plan.
		for i, want := range []string{"scan", "index", "index"} {
			if _, total, info := tbl.PageWhereInfo([]Pred{{Col: 0, Want: "p005"}}, 0, 0); total != 1 || info.Plan != want {
				t.Fatalf("auto-heat read %d: total %d, plan %q, want %q", i, total, info.Plan, want)
			}
		}

		// Size cap: an over-cap table never builds, every read scans.
		old := maxIndexedRows
		maxIndexedRows = 4
		defer func() { maxIndexedRows = old }()
		big := newBackedTable(engine, mustSchema(t, "caps", "part", "n:integer"))
		fillParts(t, big, 10)
		mustEnsureIndex(t, big, "part")
		for i := 0; i < 3; i++ {
			if _, total, info := big.PageWhereInfo([]Pred{{Col: 0, Want: "p03"}}, 0, 0); total != 1 || info.Plan != "scan" {
				t.Fatalf("capped read %d: total %d, plan %q", i, total, info.Plan)
			}
		}
	})
}

// TestMatcherRenderedEquality pins the rendered-equality contract on
// the adversarial numeric cases: pushdown must agree with
// fmt.Sprint-based filtering for NaN, negative zero, exponent-form
// floats, and non-canonical integer probes.
func TestMatcherRenderedEquality(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, mustSchema(t, "nums", "tag", "n:integer", "f:float"))
		rows := []Tuple{
			{"nan", 1, math.NaN()},
			{"negzero", 2, math.Copysign(0, -1)},
			{"zero", 3, 0.0},
			{"exp", 4, 1e21},
			{"neg", -7, -1.5},
		}
		for _, tp := range rows {
			if _, err := tbl.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		cases := []struct {
			pred Pred
			want []string
		}{
			{Pred{Col: 2, Want: "NaN"}, []string{"nan"}},
			{Pred{Col: 2, Want: "-0"}, []string{"negzero"}},
			{Pred{Col: 2, Want: "0"}, []string{"zero"}},
			{Pred{Col: 2, Want: "1e+21"}, []string{"exp"}},
			{Pred{Col: 2, Want: "1000000000000000000000"}, nil},
			{Pred{Col: 1, Want: "-7"}, []string{"neg"}},
			{Pred{Col: 1, Want: "007"}, nil},
			{Pred{Col: 1, Want: "+1"}, nil},
			{Pred{Col: 1, Want: "1.0"}, nil},
			{Pred{Col: 99, Want: "1"}, nil},
		}
		for _, c := range cases {
			got, total := tbl.PageWhere([]Pred{c.pred}, 0, 0)
			if total != len(c.want) {
				t.Fatalf("pred %+v: total %d, want %d", c.pred, total, len(c.want))
			}
			if !reflect.DeepEqual(partsOf(got), append([]string{}, c.want...)) && len(c.want) > 0 {
				t.Fatalf("pred %+v: got %v want %v", c.pred, partsOf(got), c.want)
			}
			// And the legacy reference agrees. Compare the encoded rows,
			// not the raw tuples: reflect.DeepEqual is false on NaN cells
			// even when both sides hold the identical row.
			wantRows, wantTotal := legacyFilterPage(tbl, []Pred{c.pred}, 0, 0)
			render := func(rows []Tuple) []string {
				out := make([]string, len(rows))
				for i, tp := range rows {
					out[i] = encodeTupleTSV(tp)
				}
				return out
			}
			if wantTotal != total || !reflect.DeepEqual(render(got), render(wantRows)) {
				t.Fatalf("pred %+v: pushdown (%v,%d) != legacy (%v,%d)", c.pred, got, total, wantRows, wantTotal)
			}
		}
	})
}

// TestFilteredReadsConcurrentIngest races filtered readers (index and
// scan plans, lazy builds) against a live ingester on
// every kind: an Append may run beside reads on every backend. Run with
// -race.
func TestFilteredReadsConcurrentIngest(t *testing.T) {
	forEachBackend(t, func(t *testing.T, engine *Engine) {
		tbl := newBackedTable(engine, whereSchema(t))
		fillWidgets(t, tbl, 16)
		mustEnsureIndex(t, tbl, "grp")

		const writers, readers, rounds = 1, 4, 200
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(writers)
		go func() {
			defer wg.Done()
			defer close(stop)
			for i := 16; i < 16+rounds; i++ {
				if _, err := tbl.Insert(Tuple{fmt.Sprintf("p%03d", i), fmt.Sprintf("g%d", i/8), i, float64(i) / 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				preds := []Pred{{Col: 1, Want: "g1"}}
				if r%2 == 1 {
					preds = []Pred{{Col: 0, Want: "p004"}}
				}
				for {
					rows, total := tbl.PageWhere(preds, 0, 5)
					if len(rows) > total {
						t.Errorf("reader %d: window %d > total %d", r, len(rows), total)
						return
					}
					for _, tp := range rows {
						for _, p := range preds {
							if fmt.Sprint(tp[p.Col]) != p.Want {
								t.Errorf("reader %d: row %v fails pred %+v", r, tp, p)
								return
							}
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(r)
		}
		wg.Wait()
		// Quiesced: the final state answers exactly.
		if _, total := tbl.PageWhere([]Pred{{Col: 1, Want: "g1"}}, 0, 0); total != 8 {
			t.Fatalf("final g1 total = %d, want 8", total)
		}
	})
}
