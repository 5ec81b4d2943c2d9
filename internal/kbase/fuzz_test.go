package kbase

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// fuzzSchema is the shared round-trip relation: two string columns
// (arbitrary bytes, the escaping-sensitive case), an int and a float.
func fuzzSchema(f *testing.F) Schema {
	f.Helper()
	schema, err := NewSchema("fz", "a", "b", "n:integer", "f:float")
	if err != nil {
		f.Fatal(err)
	}
	return schema
}

func fuzzSeeds(f *testing.F) {
	f.Helper()
	f.Add("", "", int64(0), uint64(0))
	f.Add("plain", "p\x0007", int64(-1), math.Float64bits(1.5))
	f.Add("tab\there", "line\nbreak\rand\\slash", int64(math.MinInt64), math.Float64bits(math.Copysign(0, -1)))
	f.Add("unicode ✓", "\xff\xfe invalid utf8", int64(math.MaxInt64), math.Float64bits(1e21))
	f.Add("nan", "inf", int64(42), uint64(0x7ff8000000000042)) // NaN with payload
}

// floatEq is the TSV round-trip float contract: non-NaN values
// (including -0, subnormals and ±Inf) must round-trip bit-exactly; NaN
// must stay NaN (the TSV rendering "NaN" carries no payload bits).
func floatEq(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// FuzzTSVRoundTrip proves the escaped-TSV row codec — the snapshot
// format every backend's byte-equality is defined over — round-trips
// arbitrary cell bytes: a page renders a row as exactly the bytes of the
// fmt.Sprint reference (reference_test.go), splitTSV → parseTupleFields
// reproduces the tuple, and re-encoding reproduces the exact line.
func FuzzTSVRoundTrip(f *testing.F) {
	schema := fuzzSchema(f)
	fuzzSeeds(f)
	render := func(tp Tuple) string {
		v := viewOf(schema, []Tuple{tp})
		return string(v.appendTSV(nil, 0))
	}
	f.Fuzz(func(t *testing.T, a, b string, n int64, fbits uint64) {
		tp := Tuple{a, b, n, math.Float64frombits(fbits)}
		line := render(tp)
		if want := encodeTupleTSV(tp); line != want {
			t.Fatalf("appendTSV = %q, reference renders %q", line, want)
		}
		// Cell bytes never leak raw record separators: the only newlines
		// or carriage returns in a line would be unescaped cell content.
		if strings.ContainsAny(line, "\n\r") {
			t.Fatalf("unescaped record separator in %q", line)
		}
		parts, err := splitTSV(line)
		if err != nil {
			t.Fatalf("splitTSV(%q): %v", line, err)
		}
		got, err := parseTupleFields(schema, parts)
		if err != nil {
			t.Fatalf("parseTupleFields(%q): %v", line, err)
		}
		if got[0] != a || got[1] != b || got[2] != n {
			t.Fatalf("round trip changed cells: %v -> %v", tp, got)
		}
		if !floatEq(got[3].(float64), tp[3].(float64)) {
			t.Fatalf("float round trip: %x -> %x", fbits, math.Float64bits(got[3].(float64)))
		}
		// Idempotence: the decoded tuple renders the identical line, so
		// snapshot bytes are stable across save/load cycles.
		if again := render(got); again != line {
			t.Fatalf("re-encode diverged: %q -> %q", line, again)
		}
	})
}

// FuzzColumnarPageRoundTrip pins the page format. Encode → decode is the
// identity on arbitrary cell bytes, bit-exactly, NaN payloads included;
// a sealed page's writeTSV and an open page's appendTSV both render the
// reference rendering (the snapshot-equality argument); and decoding
// arbitrary bytes returns an error or well-formed rows, never panics.
func FuzzColumnarPageRoundTrip(f *testing.F) {
	schema, codec := fuzzSchema(f), binaryCodec{}
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b string, n int64, fbits uint64) {
		rows := []Tuple{
			{a, b, n, math.Float64frombits(fbits)},
			{b + "x", a, -n, math.Float64frombits(fbits ^ 0x8000000000000000)},
			{"", b + a, n / 2, 0.0},
		}
		var want bytes.Buffer
		for _, tp := range rows {
			want.WriteString(encodeTupleTSV(tp) + "\n")
		}
		v := viewOf(schema, rows)
		var open []byte
		for i := 0; i < v.n; i++ {
			open = append(v.appendTSV(open, i), '\n')
		}
		if !bytes.Equal(open, want.Bytes()) {
			t.Fatalf("appendTSV = %q, reference renders %q", open, want.Bytes())
		}
		page := codec.encode(&v)
		decoded, err := codec.decode(v.l, page)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		got := tuplesOf(&decoded)
		if len(got) != len(rows) {
			t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
		}
		for i, want := range rows {
			if got[i][0] != want[0] || got[i][1] != want[1] || got[i][2] != want[2] {
				t.Fatalf("row %d: %v -> %v", i, want, got[i])
			}
			if gf, wf := got[i][3].(float64), want[3].(float64); math.Float64bits(gf) != math.Float64bits(wf) {
				t.Fatalf("row %d float bits: %x -> %x", i, math.Float64bits(wf), math.Float64bits(gf))
			}
		}
		var tsv bytes.Buffer
		if err := codec.writeTSV(&tsv, v.l, page); err != nil || !bytes.Equal(tsv.Bytes(), want.Bytes()) {
			t.Fatalf("writeTSV = %q (err %v), want %q", tsv.Bytes(), err, want.Bytes())
		}
		// Arbitrary bytes: the strings as they are, and the page damaged
		// at a position the inputs choose.
		damaged := append([]byte(nil), page...)
		if len(damaged) > 0 {
			damaged[int(fbits%uint64(len(damaged)))] ^= byte(n) | 1
		}
		for _, junk := range [][]byte{[]byte(a), []byte(b), damaged, damaged[:len(damaged)/2]} {
			if dv, err := codec.decode(v.l, junk); err == nil {
				for _, tp := range tuplesOf(&dv) {
					if len(tp) != schema.Arity() {
						t.Fatalf("decode(%q) returned a %d-column row", junk, len(tp))
					}
				}
			}
			// A page that does not render must say so, not panic.
			_ = codec.writeTSV(io.Discard, v.l, junk)
		}
	})
}
