package kbase

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// historyRow is row i of the random-history domain: the whereSchema
// shape (unique part, clustered group, int, float), already normalized
// so the slice model compares with reflect.DeepEqual.
func historyRow(i int) Tuple {
	return Tuple{fmt.Sprintf("p%03d", i), fmt.Sprintf("g%d", i/8), int64(i), float64(i) / 2}
}

// historyPreds draws a conjunction of 0–2 predicates: mostly probes
// that can match, sometimes a non-canonical int, an unparsable int or
// a column the schema does not have.
func historyPreds(rng *rand.Rand, domain int) []Pred {
	one := func() Pred {
		i := rng.Intn(domain)
		switch rng.Intn(7) {
		case 0:
			return Pred{Col: 0, Want: fmt.Sprintf("p%03d", i)}
		case 1, 2:
			return Pred{Col: 1, Want: fmt.Sprintf("g%d", i/8)}
		case 3:
			return Pred{Col: 2, Want: fmt.Sprint(i)}
		case 4:
			return Pred{Col: 3, Want: fmt.Sprint(float64(i) / 2)}
		case 5:
			return Pred{Col: 2, Want: "007"}
		default:
			return Pred{Col: 9, Want: "x"}
		}
	}
	preds := make([]Pred, rng.Intn(3))
	for i := range preds {
		preds[i] = one()
	}
	return preds
}

// modelFilter is the slice reference's filtered read: fmt.Sprint
// equality per predicate, then the window — the semantics every engine
// and plan must reproduce.
func modelFilter(model []Tuple, preds []Pred) []Tuple {
	var out []Tuple
rows:
	for _, tp := range model {
		for _, p := range preds {
			if p.Col < 0 || p.Col >= len(tp) || fmt.Sprint(tp[p.Col]) != p.Want {
				continue rows
			}
		}
		out = append(out, tp)
	}
	return out
}

// modelWindow clips rows to [offset, offset+limit) with Page's
// conventions: negative offsets clamp to 0, limit <= 0 means "to the
// end", an empty window is nil.
func modelWindow(rows []Tuple, offset, limit int) []Tuple {
	offset = max(offset, 0)
	if offset >= len(rows) {
		return nil
	}
	hi := len(rows)
	if limit > 0 && limit < hi-offset {
		hi = offset + limit
	}
	return rows[offset:hi]
}

// TestEngineRandomHistories applies seeded random operation histories
// to a memory, a disk (4, 2) and a columnar (4, 2) table — two of each,
// one taking its rows through Insert, one through InsertBatch — and to a
// plain []Tuple model: after every step each table holds exactly the model's
// rows in the model's order, and every read — windows, filtered windows
// under whatever plan the planner picked, early-stopped scans,
// membership, serialized bytes — agrees with the model.
func TestEngineRandomHistories(t *testing.T) {
	const domain, steps = 96, 300
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			disk, err := NewDiskEngine(filepath.Join(t.TempDir(), "spill"), 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			engines := []*Engine{memoryEngine, disk, NewColumnarEngine(4, 2)}
			tables := make([]*Table, 2*len(engines))
			batchFed := map[*Table]bool{}
			for i := range tables {
				tables[i] = newBackedTable(engines[i/2], whereSchema(t))
				defer tables[i].Close()
				batchFed[tables[i]] = i%2 == 1
			}
			var model []Tuple
			next := 0 // next never-inserted row id
			indexOf := func(tp Tuple) int {
				for i, row := range model {
					if reflect.DeepEqual(row, tp) {
						return i
					}
				}
				return -1
			}
			// each runs one operation against every table.
			each := func(op string, fn func(tbl *Table) error) {
				t.Helper()
				for _, tbl := range tables {
					if err := fn(tbl); err != nil {
						t.Fatalf("%s on %s: %v", op, tbl.be.kind, err)
					}
				}
			}
			for step := 0; step < steps; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 7: // insert: usually the next fresh row, sometimes any (often a duplicate)
					i := next
					if next > 0 && rng.Intn(3) == 0 || next == domain {
						i = rng.Intn(domain)
					} else {
						next++
					}
					tp := historyRow(i)
					op = fmt.Sprintf("Insert(%v)", tp)
					fresh := indexOf(tp) < 0
					if fresh {
						model = append(model, tp)
					}
					each(op, func(tbl *Table) error {
						if batchFed[tbl] {
							// Twice in one batch: the second is a duplicate of a
							// row that is not stored yet.
							n, err := tbl.InsertBatch(batchOf(tbl.Schema(), []Tuple{tp, tp}))
							if err != nil || (n == 1) != fresh || n > 1 {
								return fmt.Errorf("InsertBatch added %d, err=%v, want added=%v", n, err, fresh)
							}
							return nil
						}
						// Un-normalized ints exercise the widening path.
						added, err := tbl.Insert(Tuple{tp[0], tp[1], i, tp[3]})
						if err != nil || added != fresh {
							return fmt.Errorf("added=%v err=%v, want added=%v", added, err, fresh)
						}
						return nil
					})
				case k < 9:
					tp := historyRow(rng.Intn(domain))
					op = fmt.Sprintf("Delete(%v)", tp)
					at := indexOf(tp)
					if at >= 0 {
						model = append(model[:at:at], model[at+1:]...)
					}
					each(op, func(tbl *Table) error {
						if got := deleteTuple(tbl, tp); got != (at >= 0) {
							return fmt.Errorf("= %v, want %v", got, at >= 0)
						}
						return nil
					})
				case k < 11:
					mod, rem := int64(2+rng.Intn(5)), int64(rng.Intn(2))
					if rng.Intn(4) == 0 {
						mod, rem = 1000, 999 // matches nothing: the no-op rewrite
					}
					op = fmt.Sprintf("DeleteWhere(n%%%d==%d)", mod, rem)
					drop := func(tp Tuple) bool { return tp[2].(int64)%mod == rem }
					var kept []Tuple
					for _, tp := range model {
						if !drop(tp) {
							kept = append(kept, tp)
						}
					}
					want := len(model) - len(kept)
					model = kept
					each(op, func(tbl *Table) error {
						if got := tbl.DeleteWhere(drop); got != want {
							return fmt.Errorf("= %d, want %d", got, want)
						}
						return nil
					})
				case k < 13:
					offset, limit := rng.Intn(len(model)+6)-2, rng.Intn(len(model)+4)-1
					op = fmt.Sprintf("Page(%d, %d)", offset, limit)
					want := modelWindow(model, offset, limit)
					each(op, func(tbl *Table) error {
						if got := tbl.Page(offset, limit); !reflect.DeepEqual(got, want) {
							return fmt.Errorf("= %v, want %v", got, want)
						}
						return nil
					})
				case k < 16:
					preds := historyPreds(rng, domain)
					offset, limit := rng.Intn(12)-2, rng.Intn(8)-1
					op = fmt.Sprintf("PageWhere(%v, %d, %d)", preds, offset, limit)
					matches := modelFilter(model, preds)
					want := modelWindow(matches, offset, limit)
					each(op, func(tbl *Table) error {
						got, total := tbl.PageWhere(preds, offset, limit)
						if total != len(matches) || !reflect.DeepEqual(got, want) {
							return fmt.Errorf("= (%v, %d), want (%v, %d)", got, total, want, len(matches))
						}
						return nil
					})
				case k < 17:
					preds := historyPreds(rng, domain)
					stopAfter := 1 + rng.Intn(6)
					op = fmt.Sprintf("Scan filtered by %v stopping after %d", preds, stopAfter)
					want := modelWindow(modelFilter(model, preds), 0, stopAfter)
					each(op, func(tbl *Table) error {
						var got []Tuple
						tbl.Scan(func(tp Tuple) bool {
							if len(modelFilter([]Tuple{tp}, preds)) == 1 {
								got = append(got, tp.Clone())
							}
							return len(got) < stopAfter
						})
						if !reflect.DeepEqual(got, want) {
							return fmt.Errorf("= %v, want %v", got, want)
						}
						return nil
					})
				case k < 18:
					tp := historyRow(rng.Intn(domain))
					op = fmt.Sprintf("Contains(%v)", tp)
					want := indexOf(tp) >= 0
					each(op, func(tbl *Table) error {
						if got := tbl.Contains(tp); got != want {
							return fmt.Errorf("= %v, want %v", got, want)
						}
						return nil
					})
				case k < 19: // planner knobs: results must not depend on them
					col := whereSchema(t).Columns[rng.Intn(4)].Name
					auto := rng.Intn(2) == 0
					op = fmt.Sprintf("EnsureIndex(%s), SetAutoIndex(%v)", col, auto)
					each(op, func(tbl *Table) error {
						tbl.SetAutoIndex(auto)
						return tbl.EnsureIndex(col)
					})
				default:
					op = "WriteTSV"
					var want bytes.Buffer
					want.WriteString("#widgets\tpart:varchar\tgrp:varchar\tn:integer\tscore:float\n")
					for _, tp := range model {
						want.WriteString(encodeTupleTSV(tp) + "\n")
					}
					each(op, func(tbl *Table) error {
						var got bytes.Buffer
						if err := tbl.WriteTSV(&got); err != nil {
							return err
						}
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							return fmt.Errorf("bytes differ:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
						}
						return nil
					})
				}
				for _, tbl := range tables {
					got := tbl.Tuples()
					if tbl.Len() != len(model) || len(got) != len(model) || len(got) > 0 && !reflect.DeepEqual(got, model) {
						t.Fatalf("step %d, after %s: %s holds %d rows %v, model %d rows %v",
							step, op, tbl.be.kind, tbl.Len(), got, len(model), model)
					}
				}
			}
		})
	}
}
