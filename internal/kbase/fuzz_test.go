package kbase

import (
	"bytes"
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

// floatEq is the round-trip float contract: non-NaN values (including
// -0, subnormals and ±Inf) must round-trip bit-exactly; NaN must stay
// NaN (the TSV rendering "NaN" carries no payload bits).
func floatEq(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// FuzzTSVRoundTrip proves the escaped-TSV row codec — the snapshot
// format every backend's byte-equality is defined over — round-trips
// arbitrary cell bytes: encodeTupleTSV → splitTSV → parseTupleFields
// reproduces the tuple, and re-encoding reproduces the exact line.
func FuzzTSVRoundTrip(f *testing.F) {
	schema := fuzzSchema(f)
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b string, n int64, fbits uint64) {
		tp := Tuple{a, b, n, math.Float64frombits(fbits)}
		line := encodeTupleTSV(tp)
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
		if again := encodeTupleTSV(got); again != line {
			t.Fatalf("re-encode diverged: %q -> %q", line, again)
		}
	})
}

// FuzzColumnarPageRoundTrip runs every page codec (the name is the one
// the CI fuzz corpus and test floor know it by). For each, encode →
// decode is the identity on arbitrary cell bytes — bit-exactly for the
// binary codec, NaN payloads included, and up to the payload-free "NaN"
// rendering for the TSV codec — the decoded rows render the same TSV as
// the originals (the snapshot-equality argument), writeTSV emits exactly
// that rendering, and decoding arbitrary bytes returns an error or rows,
// never panics.
func FuzzColumnarPageRoundTrip(f *testing.F) {
	schema := fuzzSchema(f)
	fuzzSeeds(f)
	codecs := []struct {
		name     string
		codec    pageCodec
		exactNaN bool
	}{
		{"tsv", tsvCodec{}, false},
		{"binary", binaryCodec{}, true},
	}
	f.Fuzz(func(t *testing.T, a, b string, n int64, fbits uint64) {
		rows := []Tuple{
			{a, b, n, math.Float64frombits(fbits)},
			{b + "x", a, -n, math.Float64frombits(fbits ^ 0x8000000000000000)},
			{"", b + a, n / 2, 0.0},
		}
		var want bytes.Buffer
		if err := writeRowsTSV(&want, rows); err != nil {
			t.Fatal(err)
		}
		for _, c := range codecs {
			page, err := c.codec.encode(schema, rows)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got, err := c.codec.decode(schema, page)
			if err != nil {
				t.Fatalf("%s: decode of own encoding failed: %v", c.name, err)
			}
			if len(got) != len(rows) {
				t.Fatalf("%s: decoded %d rows, want %d", c.name, len(got), len(rows))
			}
			for i, want := range rows {
				if got[i][0] != want[0] || got[i][1] != want[1] || got[i][2] != want[2] {
					t.Fatalf("%s: row %d: %v -> %v", c.name, i, want, got[i])
				}
				gf, wf := got[i][3].(float64), want[3].(float64)
				if !floatEq(gf, wf) || c.exactNaN && math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("%s: row %d float bits: %x -> %x", c.name, i, math.Float64bits(wf), math.Float64bits(gf))
				}
			}
			var tsv bytes.Buffer
			if err := c.codec.writeTSV(&tsv, schema, page); err != nil || !bytes.Equal(tsv.Bytes(), want.Bytes()) {
				t.Fatalf("%s: writeTSV = %q (err %v), want %q", c.name, tsv.Bytes(), err, want.Bytes())
			}
			// Arbitrary bytes: the strings as they are, and this codec's
			// own page damaged at a position the inputs choose.
			damaged := append([]byte(nil), page...)
			if len(damaged) > 0 {
				damaged[int(fbits%uint64(len(damaged)))] ^= byte(n) | 1
			}
			for _, junk := range [][]byte{[]byte(a), []byte(b), damaged, damaged[:len(damaged)/2]} {
				if rows, err := c.codec.decode(schema, junk); err == nil {
					for _, tp := range rows {
						if len(tp) != schema.Arity() {
							t.Fatalf("%s: decode(%q) returned a %d-column row", c.name, junk, len(tp))
						}
					}
				}
			}
		}
	})
}
