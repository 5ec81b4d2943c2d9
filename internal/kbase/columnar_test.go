package kbase

import (
	"math"
	"testing"
)

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
	decoded, err := codec.decode(v.l, blob)
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
	blob := codec.encode(&v)
	if _, err := codec.parse(v.l, blob); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	for i := 1; i < len(blob); i++ {
		if _, err := codec.decode(v.l, blob[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// The int block is the final 17 bytes (tag + 2×8): flipping its tag
	// must trip the tag check, and trailing garbage the length check.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-17] = 0xff
	if _, err := codec.decode(v.l, bad); err == nil {
		t.Fatal("flipped column tag accepted")
	}
	if _, err := codec.decode(v.l, append(append([]byte(nil), blob...), 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
