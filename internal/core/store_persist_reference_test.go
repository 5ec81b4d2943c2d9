package core

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/datamodel"
)

// referenceInts, referenceBoxes and referenceFont are the sentence-field
// encoders as they were before each field was built in one buffer: a
// string per number, a concatenation per item, strings.Join per field.
// They are the oracle encodeInts, encodeBoxes and encodeFont must match
// byte for byte (TestSentenceFieldEncodersMatchReference).
func referenceInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return joinList(parts)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func referenceBoxes(bs []datamodel.Box) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = ftoa(b.X0) + fieldSep + ftoa(b.Y0) + fieldSep + ftoa(b.X1) + fieldSep + ftoa(b.Y1)
	}
	return joinList(parts)
}

func referenceFont(f datamodel.Font) string {
	if f == (datamodel.Font{}) {
		return ""
	}
	return f.Name + fieldSep + ftoa(f.Size) + fieldSep + strconv.FormatBool(f.Bold) + fieldSep + strconv.FormatBool(f.Italic)
}

// TestSentenceFieldEncodersMatchReference pins the buffer-built field
// encoders to the reference ones, on coordinates without an ordinary
// decimal rendering and on fields longer than the encoders' stack
// buffers, and checks the decoders still read the values back bit for
// bit (NaN as NaN).
func TestSentenceFieldEncodersMatchReference(t *testing.T) {
	odd := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
		72.5, 1e21, 1e-7, 1.0 / 3, 612,
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }

	var boxes []datamodel.Box
	for n := 0; n <= 3*len(odd); n++ { // 0 boxes, 1 box, … past the stack buffer
		got, want := encodeBoxes(boxes), referenceBoxes(boxes)
		if got != want {
			t.Fatalf("encodeBoxes(%v) = %q, reference %q", boxes, got, want)
		}
		back, err := decodeBoxes(got)
		if err != nil || len(back) != len(boxes) {
			t.Fatalf("decodeBoxes(%q) = %v, %v", got, back, err)
		}
		for i, b := range boxes {
			if !same(b.X0, back[i].X0) || !same(b.Y0, back[i].Y0) || !same(b.X1, back[i].X1) || !same(b.Y1, back[i].Y1) {
				t.Fatalf("box %d round-trips %v -> %v", i, b, back[i])
			}
		}
		boxes = append(boxes, datamodel.Box{X0: odd[n%len(odd)], Y0: odd[(n+1)%len(odd)], X1: odd[(n+5)%len(odd)], Y1: odd[(n+9)%len(odd)]})
	}

	var ints []int
	for n := 0; n <= 300; n++ {
		if got, want := encodeInts(ints), referenceInts(ints); got != want {
			t.Fatalf("encodeInts(%v) = %q, reference %q", ints, got, want)
		}
		ints = append(ints, []int{0, -1, n, math.MaxInt64, math.MinInt64}[n%5])
	}

	longName := string(make([]byte, 300))
	for _, name := range []string{"", "Helvetica", "Times New Roman, Bold", longName} {
		for _, size := range odd {
			for _, style := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				f := datamodel.Font{Name: name, Size: size, Bold: style[0], Italic: style[1]}
				got, want := encodeFont(f), referenceFont(f)
				if got != want {
					t.Fatalf("encodeFont(%+v) = %q, reference %q", f, got, want)
				}
				if f == (datamodel.Font{}) {
					f = datamodel.Font{} // a -0 size beside nothing else is the zero font
				}
				if back, err := decodeFont(got); err != nil || back.Name != f.Name || !same(back.Size, f.Size) || back.Bold != f.Bold || back.Italic != f.Italic {
					t.Fatalf("decodeFont(%q) = %+v, %v; want %+v", got, back, err, f)
				}
			}
		}
	}
}
