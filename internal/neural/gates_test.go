package neural

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// exps sets dst[i] = math.Exp(x[i]) through expAVX, the way sigmoids
// goes through sigmoidAVX: the kernel where it runs, math.Exp for the
// groups it stops at and for the tail.
func exps(dst, x []float64) {
	i := 0
	if useGates {
		n := len(x) &^ 3
		for i < n {
			i += expAVX(dst[i:n], x[i:n])
			if i < n {
				for j := i; j < i+4; j++ {
					dst[j] = math.Exp(x[j])
				}
				i += 4
			}
		}
	}
	for ; i < len(x); i++ {
		dst[i] = math.Exp(x[i])
	}
}

// archExpReplica is math.archExp (math/exp_amd64.s) written in Go,
// through its FMA path, except that each of its ten fused multiply-adds
// whose bit is set in unfused is computed as a rounded product and a
// rounded sum. With every bit set (plainExp) it is archExp's plain path.
// The bits number the FMAs in order: 0 and 1 reduce the argument by
// n·ln 2, 2–8 evaluate the Taylor polynomial, 9 is the last squaring's
// "+1".
func archExpReplica(x float64, unfused uint) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; out of range, the "integer
	// indefinite" MinInt32.
	n := int32(math.MinInt32)
	if t := math.RoundToEven(log2e * x); t >= math.MinInt32 && t <= math.MaxInt32 {
		n = int32(t)
	}
	nf := float64(n)
	fma := func(k uint, a, b, c float64) float64 {
		if unfused&(1<<k) != 0 {
			return a*b + c
		}
		return math.FMA(a, b, c)
	}
	r := fma(0, -nf, ln2U, x)
	r = fma(1, -nf, ln2L, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	for i, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = fma(uint(2+i), p, r, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = fma(9, r, r+2, 1)
	e := n + 0x3ff
	switch {
	case e <= 0:
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+0x3fe) << 52)
		return r * math.Float64frombits(1<<52)
	case e >= 0x7ff:
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// plainExp selects archExp's plain path in archExpReplica.
const plainExp = 1<<10 - 1

// fmaWitnesses are arguments at which computing one of archExp's FMAs
// unfused changes the result, three for each FMA where 5·10⁷ random
// arguments found any: bits 7, 8 and 9 of archExpReplica. (Unfusing FMA
// 0 changes nothing, since LN2U has 32 significant bits and n·LN2U is
// exact; the rounding that unfusing FMAs 1–6 adds was absorbed on every
// argument tried.)
var fmaWitnesses = map[uint][]float64{
	7: {-23.739675206206563, -5.853819102335967, 25.34032551109054},
	8: {-26.68, -8.8, 24.6},
	9: {15.417865122395822, 6.706881993978007, 0.31},
}

// gateBoundaries are the arguments at which the scalar functions change
// path: archExp's overflow threshold, the first exponents that
// overflow, go denormal and underflow, and math.tanh's branch points —
// each with its neighbours one ulp away — and multiples of ln 2, where
// the reduced argument x − n·ln 2 is small enough for the rounding of
// n·LN2L, fused or not, to show.
var gateBoundaries = func() []float64 {
	var out []float64
	for k := -40; k <= 40; k += 3 {
		x := float64(k) * math.Ln2
		out = append(out, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, ws := range fmaWitnesses {
		for _, w := range ws {
			// exp's argument is x for exp, −x for sigmoid and 2|x| for
			// tanh.
			out = append(out, w, -w, w/2, -w/2)
		}
	}
	for _, b := range []float64{
		7.09782712893384e+02, 709.0895657128241, 709.78, -708.3964185322641, -708.75, -709.0895657128241,
		-745.1332191019411, -745.13321910194122, -744.44007192138, -1e6, 1e6,
		0.625, 44.0148459655565271479940, 22.0, 0.3125, 354.891356446692,
		1e-308, 2.2250738585072014e-308, 4.9e-324, 1e-20, 5e-17, 1.1102230246251565e-16,
	} {
		for _, s := range []float64{1, -1} {
			x := s * b
			out = append(out, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
		}
	}
	return append(out, specials...)
}()

// gateInputs returns n arguments: the boundaries, then a mix of
// pre-activation-sized values, wide values, arbitrary bit patterns and
// the boundaries again at random positions (so that a special lane
// lands at every position of a group of four).
func gateInputs(rng *rand.Rand, n int) []float64 {
	xs := append([]float64(nil), gateBoundaries...)
	for len(xs) < n {
		switch rng.Intn(6) {
		case 0:
			xs = append(xs, rng.NormFloat64())
		case 1:
			xs = append(xs, 8*rng.NormFloat64())
		case 2:
			xs = append(xs, (2*rng.Float64()-1)*800)
		case 3:
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		case 4:
			xs = append(xs, gateBoundaries[rng.Intn(len(gateBoundaries))])
		default:
			xs = append(xs, (2*rng.Float64()-1)*50)
		}
	}
	return xs
}

// checkGates compares exps, sigmoids and tanhs on xs with the scalar
// functions, bit for bit (NaN as a class), both into a separate slice
// and in place.
func checkGates(t *testing.T, xs []float64) {
	t.Helper()
	dst := make([]float64, len(xs))
	for _, f := range []struct {
		name   string
		vector func(dst, x []float64)
		scalar func(float64) float64
	}{{"exp", exps, math.Exp}, {"sigmoid", sigmoids, sigmoid}, {"tanh", tanhs, math.Tanh}} {
		f.vector(dst, xs)
		inPlace := append([]float64(nil), xs...)
		f.vector(inPlace, inPlace)
		for i, x := range xs {
			want := f.scalar(x)
			if !bitsMatch(dst[i], want) || !bitsMatch(inPlace[i], want) {
				t.Fatalf("%s(%v) [%#x] at %d of %d: %v (%#x), in place %v, scalar %v (%#x)", f.name, x,
					math.Float64bits(x), i, len(xs), dst[i], math.Float64bits(dst[i]), inPlace[i], want, math.Float64bits(want))
			}
		}
	}
}

// TestGateKernelsMatchReference pins the vector exp, sigmoid and tanh to
// math.Exp, 1/(1+math.Exp(−x)) and math.Tanh bit for bit: specials,
// subnormals, ±0, the overflow, denormal and underflow thresholds and
// tanh's branch points with their neighbours, at every lane position
// and every tail length, and 200 000 mixed arguments.
//
// First it checks the dispatch and the inputs. At every start-up probe
// argument archExp's FMA and plain paths round differently, so the
// probe tells them apart; at each FMA witness, unfusing that FMA shows;
// the Go replica of the path math.Exp takes here gives its bits; and
// where the CPU has AVX2 and FMA and math.Exp takes the FMA path, the
// probe must have accepted the kernels — a kernel that parts from
// math.Exp fails here rather than being switched off unseen.
func TestGateKernelsMatchReference(t *testing.T) {
	for _, x := range expProbe {
		if archExpReplica(x, 0) == archExpReplica(x, plainExp) {
			t.Errorf("archExp's FMA and plain paths agree at probe argument %v", x)
		}
	}
	for k, ws := range fmaWitnesses {
		for _, w := range ws {
			if archExpReplica(w, 0) == archExpReplica(w, 1<<k) {
				t.Errorf("unfusing archExp's FMA %d changes nothing at its witness %v", k, w)
			}
		}
	}
	var mode uint // the path math.Exp takes here: fused (0) or plain
	if archExpReplica(expProbe[0], 0) != math.Exp(expProbe[0]) {
		mode = plainExp
	}
	fused := mode == 0
	for _, x := range gateInputs(rand.New(rand.NewSource(43)), 20000) {
		if runtime.GOARCH != "amd64" {
			break // math.Exp is Go code there, not archExp
		}
		if got, want := archExpReplica(x, mode), math.Exp(x); !bitsMatch(got, want) {
			t.Fatalf("replica (fused %v) of math.Exp(%v) = %v, math.Exp %v", fused, x, got, want)
		}
	}
	t.Logf("gate kernels in use: %v (AVX %v, AVX2 and FMA %v, math.Exp fused %v)", useGates, useAVX, hasAVX2FMA(), fused)
	if useAVX && hasAVX2FMA() && fused && !useGates {
		t.Fatal("the start-up probe switched the gate kernels off: expAVX parts from math.Exp")
	}

	for n := 0; n <= 9; n++ {
		for start := 0; start+n <= len(gateBoundaries); start++ {
			checkGates(t, gateBoundaries[start:start+n])
		}
	}
	checkGates(t, gateInputs(rand.New(rand.NewSource(43)), 200000))
}

// FuzzGateKernels feeds arbitrary bit patterns to the vector exp,
// sigmoid and tanh; each result must equal the scalar function's bits
// (NaN as a class).
func FuzzGateKernels(f *testing.F) {
	seed := make([]byte, 8*len(gateBoundaries))
	for i, x := range gateBoundaries {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(x))
	}
	f.Add(seed)
	f.Add(seed[:8*7])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkGates(t, xs)
	})
}

// BenchmarkGates times the kernels and the scalar functions over one
// step's gate pre-activations (three sigmoid gates and one tanh gate of
// the model's 16 units, then tanh(c)), per element.
func BenchmarkGates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 48)
	for i := range x {
		x[i] = 2 * rng.NormFloat64()
	}
	dst := make([]float64, len(x))
	for _, bc := range []struct {
		name string
		fn   func(dst, x []float64)
	}{
		{"sigmoid/kernel", sigmoids},
		{"sigmoid/scalar", func(dst, x []float64) {
			for i, v := range x {
				dst[i] = sigmoid(v)
			}
		}},
		{"tanh/kernel", tanhs},
		{"tanh/scalar", func(dst, x []float64) {
			for i, v := range x {
				dst[i] = math.Tanh(v)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.fn(dst, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)), "ns/elem")
		})
	}
}
