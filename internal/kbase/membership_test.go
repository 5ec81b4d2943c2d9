package kbase

import (
	"fmt"
	"testing"
)

// featureRow is row i of a features-shaped relation (cand, seq, feature):
// three rows a candidate.
func featureRow(i int) Tuple { return Tuple{int64(i / 3), int64(i % 3), fmt.Sprintf("f%d", i%5)} }

// TestContainsDeleteProbes pins set membership on every engine, over open
// pages and sealed ones (four rows a page): Contains and Delete answer
// each probe as written out here — stored rows, gaps, rows before and
// after the stored ones, a stored (cand, seq) with another feature, and
// cells of other types, which are looked up by their rendering. Delete
// runs the probes in order, so a row a cross-typed probe deleted is gone
// for the probes after it.
func TestContainsDeleteProbes(t *testing.T) {
	var rows []Tuple
	for i := 0; i < 40; i += 2 { // every other row, so there are gaps
		rows = append(rows, featureRow(i))
	}
	type probe struct {
		tp                Tuple
		contains, deletes bool
	}
	probes := []probe{
		{Tuple{int64(0), int64(1), "f1"}, false, false},  // a gap
		{Tuple{int64(-1), int64(0), "f0"}, false, false}, // before the first
		{Tuple{int64(99), int64(0), "f0"}, false, false}, // after the last
		{Tuple{int64(2), int64(0), "f0"}, false, false},  // stored (2, 0) is f1: another feature
		{Tuple{2, 0, "f1"}, true, true},                  // ints widen
		{Tuple{"2", "0", "f1"}, true, false},             // strings that render like the row
		{Tuple{2.0, int32(0), "f1"}, true, false},        // a float and an int32 that render like it
		{Tuple{"02", 0, "f1"}, false, false},             // not the canonical rendering
		{Tuple{2, 0}, false, false},                      // the wrong width
		{Tuple{"f1", 2, 0}, false, false},                // the wrong types
	}
	for _, tp := range rows {
		gone := tp[0] == int64(2) && tp[1] == int64(0) // deleted by the widened probe
		probes = append(probes, probe{tp, true, !gone})
	}
	forEachBackend(t, func(t *testing.T, engine Engine) {
		tbl := newBackedTable(t, engine, mustSchema(t, "features", "cand:integer", "seq:integer", "feature"))
		defer tbl.Close()
		if n, err := tbl.InsertAll(rows); err != nil || n != len(rows) {
			t.Fatalf("InsertAll = %d, %v", n, err)
		}
		for _, p := range probes {
			if got := tbl.Contains(p.tp); got != p.contains {
				t.Errorf("Contains(%#v) = %v, want %v", p.tp, got, p.contains)
			}
		}
		for _, p := range probes {
			if got := tbl.Delete(p.tp); got != p.deletes {
				t.Errorf("Delete(%#v) = %v, want %v", p.tp, got, p.deletes)
			}
		}
		if tbl.Len() != 0 {
			t.Fatalf("the probes left %d rows", tbl.Len())
		}
	})
}
