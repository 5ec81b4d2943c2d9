package kbase

import (
	"math"
	"reflect"
	"testing"
)

// TestColumnarInPagePruning is the tentpole's decode-accounting
// assertion: a filtered read on the columnar engine decodes the
// predicate column to find matches, materializes the other columns
// only at the window's surviving positions, and never touches pruned
// pages at all.
func TestColumnarInPagePruning(t *testing.T) {
	engine := NewColumnarEngine(4, 2)
	defer engine.Close()
	tbl := newBackedTable(t, engine, whereSchema(t))
	tbl.SetAutoIndex(false) // measure the scan path, not index plans
	fillWidgets(t, tbl, 64) // 16 pages, grp g0..g7 → 2 pages per group

	stats := func() ColumnarStats {
		cs, ok := tbl.ColumnarStats()
		if !ok {
			t.Fatal("ColumnarStats() not available on a columnar table")
		}
		return cs
	}
	delta := func(a, b ColumnarStats) (skipped int64, cells []int64) {
		cells = make([]int64, len(b.CellsDecoded))
		for c := range cells {
			cells[c] = b.CellsDecoded[c] - a.CellsDecoded[c]
		}
		return b.PagesSkipped - a.PagesSkipped, cells
	}

	s0 := stats()
	if s0.Pages != 16 {
		t.Fatalf("pages = %d, want 16", s0.Pages)
	}

	// Full-window read: 14 of 16 pages pruned before parsing; on the 2
	// surviving pages the grp column is examined in full (8 cells) and
	// all 8 matches materialize every column.
	rows, total := tbl.PageWhere([]Pred{{Col: 1, Want: "g3"}}, 0, 0)
	if total != 8 || len(rows) != 8 || rows[0][0] != "p024" || rows[7][0] != "p031" {
		t.Fatalf("PageWhere(g3): %d rows, total %d: %v", len(rows), total, rows)
	}
	s1 := stats()
	skipped, cells := delta(s0, s1)
	if skipped != 14 {
		t.Fatalf("PagesSkipped delta = %d, want 14", skipped)
	}
	if want := []int64{8, 16, 8, 8}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("CellsDecoded delta = %v, want %v (predicate col examined 8 + materialized 8; others materialized 8)", cells, want)
	}

	// Windowed read (offset 2, limit 3): the predicate column is still
	// examined on both surviving pages (total must stay exact), but the
	// unselected columns decode exactly the 3 window cells each.
	rows, total = tbl.PageWhere([]Pred{{Col: 1, Want: "g3"}}, 2, 3)
	if total != 8 || len(rows) != 3 || rows[0][0] != "p026" || rows[2][0] != "p028" {
		t.Fatalf("PageWhere(g3, 2, 3): %d rows, total %d: %v", len(rows), total, rows)
	}
	s2 := stats()
	skipped, cells = delta(s1, s2)
	if skipped != 14 {
		t.Fatalf("windowed PagesSkipped delta = %d, want 14", skipped)
	}
	if want := []int64{3, 11, 3, 3}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("windowed CellsDecoded delta = %v, want %v", cells, want)
	}

	// A probe outside every page's distinct set prunes all 16 pages:
	// nothing is parsed, decoded or materialized.
	if rows, total := tbl.PageWhere([]Pred{{Col: 1, Want: "nope"}}, 0, 0); total != 0 || rows != nil {
		t.Fatalf("PageWhere(nope): %d rows, total %d", len(rows), total)
	}
	s3 := stats()
	skipped, cells = delta(s2, s3)
	if skipped != 16 {
		t.Fatalf("no-match PagesSkipped delta = %d, want 16", skipped)
	}
	if want := []int64{0, 0, 0, 0}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("no-match CellsDecoded delta = %v, want %v", cells, want)
	}

	// A conjunction prunes through *both* columns' zones — grp=g3
	// admits pages 6 and 7, but n=25 is outside page 7's exact distinct
	// set, so only page 6 is ever parsed — and evaluates the second
	// predicate only at the first predicate's surviving positions.
	rows, total = tbl.PageWhere([]Pred{{Col: 1, Want: "g3"}, {Col: 2, Want: "25"}}, 0, 0)
	if total != 1 || len(rows) != 1 || rows[0][0] != "p025" {
		t.Fatalf("conjunction: %d rows, total %d: %v", len(rows), total, rows)
	}
	skipped, cells = delta(s3, stats())
	if skipped != 15 {
		t.Fatalf("conjunction PagesSkipped delta = %d, want 15", skipped)
	}
	// grp: 4 examined on page 6 + 1 materialized; n: 4 examined (grp
	// matched every row of the page) + 1 materialized; part/score: 1
	// materialized each.
	if want := []int64{1, 5, 5, 1}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("conjunction CellsDecoded delta = %v, want %v", cells, want)
	}
}

// TestColumnarCodecRoundTrip pins the binary page codec bit-exactly on
// the adversarial cells: NaN payloads, negative zero, exponent-form
// floats, extreme ints, empty strings, and cell bytes that would need
// escaping in TSV (the binary format stores them raw).
func TestColumnarCodecRoundTrip(t *testing.T) {
	schema, codec := mustSchema(t, "codec", "s", "n:integer", "f:float"), binaryCodec{}
	nanPayload := math.Float64frombits(0x7ff8000000000042) // non-default NaN payload
	rows := []Tuple{
		{"", int64(0), 0.0},
		{"plain", int64(math.MaxInt64), math.Copysign(0, -1)},
		{"tab\tand\nnewline\\slash", int64(math.MinInt64), 1e21},
		{"unicode ✓ Ω", int64(-7), math.Inf(-1)},
		{"nan", int64(42), nanPayload},
	}
	v := viewOf(schema, rows)
	blob := codec.encode(&v)
	decoded, err := codec.decode(v.l, blob, func(int, int) {})
	if err != nil {
		t.Fatal(err)
	}
	got := tuplesOf(&decoded)
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i, want := range rows {
		if got[i][0] != want[0] || got[i][1] != want[1] {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want)
		}
		// Floats compare as bit patterns: NaN payloads and -0 must
		// survive exactly.
		if math.Float64bits(got[i][2].(float64)) != math.Float64bits(want[2].(float64)) {
			t.Fatalf("row %d float bits: got %x, want %x",
				i, math.Float64bits(got[i][2].(float64)), math.Float64bits(want[2].(float64)))
		}
	}

	// A page holds only typed cells, so a mistyped cell is refused before
	// it reaches one: the insert errors and stores nothing, and the table
	// takes the next row.
	be, err := NewColumnarEngine(1, 2).NewBackend(schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl := newTableWith(schema, be)
	defer tbl.Close()
	if _, err := tbl.Insert(Tuple{"x", "not-an-int", 0.0}); err == nil {
		t.Fatal("Insert with a mistyped cell did not error")
	}
	if tbl.Len() != 0 {
		t.Fatalf("failed Insert left %d rows", tbl.Len())
	}
	if _, err := tbl.Insert(Tuple{"x", int64(1), 0.5}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d after recovery insert", tbl.Len())
	}
}

// TestColumnarParseRejectsCorruptPages checks the parser's validation:
// a truncated or mis-tagged blob errors instead of mis-decoding.
func TestColumnarParseRejectsCorruptPages(t *testing.T) {
	schema, codec := mustSchema(t, "codec", "s", "n:integer"), binaryCodec{}
	v := viewOf(schema, []Tuple{{"hello", int64(7)}, {"world", int64(8)}})
	blob, none := codec.encode(&v), func(int, int) {}
	if _, err := codec.parse(v.l, blob); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	for i := 1; i < len(blob); i++ {
		if _, err := codec.decode(v.l, blob[:i], none); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// The int block is the final 17 bytes (tag + 2×8): flipping its tag
	// must trip the tag check, and trailing garbage the length check.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-17] = 0xff
	if _, err := codec.decode(v.l, bad, none); err == nil {
		t.Fatal("flipped column tag accepted")
	}
	if _, err := codec.decode(v.l, append(append([]byte(nil), blob...), 0x00), none); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
