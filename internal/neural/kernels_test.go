package neural

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specials are the inputs where a packed lane could part from the
// scalar loop if it did anything but the same operations: signed
// zeros, subnormals, infinities, NaNs with different payloads and signs
// (a quiet and a signalling one), and magnitudes whose products
// overflow or underflow.
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, math.Float64frombits(0x000fffffffffffff), 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff4000000000001),
	1e308, -1e308, 1e-300, 1, -1,
}

// fillMixed fills dst with normally distributed values, a share of
// them replaced by exact zeros and by specials.
func fillMixed(rng *rand.Rand, dst []float64, zeroRate, specialRate float64) {
	for i := range dst {
		switch p := rng.Float64(); {
		case p < zeroRate:
			dst[i] = 0
		case p < zeroRate+specialRate:
			dst[i] = specials[rng.Intn(len(specials))]
		default:
			dst[i] = rng.NormFloat64()
		}
	}
}

// bitsMatch reports whether a and b have the same IEEE-754 bits, taking
// any two NaNs as equal: when both operands of an x86 operation are
// NaN the result carries the first source's payload, and which operand
// gc makes the first source is the compiler's choice (a -race build
// chooses differently), not a property of the loop.
func bitsMatch(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// firstBitsDiff returns the first index at which got and want differ by
// bitsMatch, or -1.
func firstBitsDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if !bitsMatch(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// adamDiff describes the first element of w, m or v whose bits differ
// from the reference's, or returns "".
func adamDiff(got, want [3][]float64) string {
	for j, name := range [3]string{"w", "m", "v"} {
		if i := firstBitsDiff(got[j], want[j]); i >= 0 {
			return fmt.Sprintf("%s[%d] = %v (%#x), reference %v (%#x)", name, i,
				got[j][i], math.Float64bits(got[j][i]), want[j][i], math.Float64bits(want[j][i]))
		}
	}
	return ""
}

func newAdamConsts(scale, wd, b1, b2, lr, eps float64, t int) adamConsts {
	return adamConsts{
		scale: scale, wd: wd, b1: b1, c1: 1 - b1, b2: b2, c2: 1 - b2,
		b1t: 1 - math.Pow(b1, float64(t)), b2t: 1 - math.Pow(b2, float64(t)),
		lr: lr, eps: eps,
	}
}

// adamReference is Adam.StepScaled as it was written before the
// kernels, kept verbatim: the trajectory oracle.
type adamReference struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64

	t    int
	m, v map[*Mat][]float64
}

func (o *adamReference) StepScaled(ps Params, scale float64) {
	o.t++
	b1t := 1 - math.Pow(o.Beta1, float64(o.t))
	b2t := 1 - math.Pow(o.Beta2, float64(o.t))
	// Locals, so the loop does not reload the hyperparameters after
	// every store to a weight.
	lr, b1, b2, eps, wd := o.LR, o.Beta1, o.Beta2, o.Eps, o.WeightDecay
	for _, p := range ps {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.W))
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float64, len(p.W))
			o.v[p] = v
		}
		w := p.W
		pg, m, v := p.G[:len(w)], m[:len(w)], v[:len(w)]
		for i := range w {
			g := float64(pg[i]*scale) + wd*w[i]
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			mh := m[i] / b1t
			vh := v[i] / b2t
			w[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
	}
}

// adamLengths are every tail length the four-lane kernel can leave
// (0–9) and the batch_kbc model's parameter count.
var adamLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13604}

// TestAdamKernelMatchesReference pins the Adam update bit for bit: the
// dispatching adamUpdate (the AVX kernel where the CPU has it) against
// the scalar loop on special values and several constant sets, and
// Adam.StepScaled against the pre-kernel loop kept verbatim over 650
// steps — long enough that the bias correction 1−β₁ᵗ rounds to 1.
func TestAdamKernelMatchesReference(t *testing.T) {
	t.Logf("AVX kernels in use: %v", useAVX)
	rng := rand.New(rand.NewSource(28))
	consts := []struct {
		name string
		k    adamConsts
	}{
		{"defaults", newAdamConsts(1, 1e-4, 0.9, 0.999, 0.02, 1e-8, 1)},
		{"clipped", newAdamConsts(0.3712, 1e-4, 0.9, 0.999, 0.02, 1e-8, 17)},
		{"no decay", newAdamConsts(2.5, 0, 0.9, 0.999, 1e-3, 1e-8, 400)},
		{"b1t is 1", newAdamConsts(0.05, 0.5, 0.8, 0.99, 10, 0, 5000)},
		{"huge steps", newAdamConsts(1e200, 1e-200, 0.5, 0.5, 1e300, 1e-300, 2)},
		{"special scale", newAdamConsts(math.Inf(1), 0, 0.9, 0.999, 0.02, 1e-8, 3)},
		{"NaN second moment", newAdamConsts(1, 1e-4, 0.9, math.NaN(), 0.02, math.NaN(), 5)},
	}
	for _, n := range adamLengths {
		for _, tc := range consts {
			name, k := tc.name, tc.k
			w, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for _, s := range [][]float64{w, m, v} {
				fillMixed(rng, s, 0.1, 0.05)
			}
			for i := range v {
				v[i] = math.Abs(v[i]) // a second moment is ≥ 0 …
			}
			if n > 0 {
				v[0] = -1 // … but the kernel must match the loop's √ of a negative too
			}
			rw, rm, rv := slices.Clone(w), slices.Clone(m), slices.Clone(v)
			for step := 0; step < 3; step++ {
				fillMixed(rng, g, 0.3, 0.05)
				adamUpdate(w, g, m, v, &k)
				adamUpdateGo(rw, g, rm, rv, &k)
				if d := adamDiff([3][]float64{w, m, v}, [3][]float64{rw, rm, rv}); d != "" {
					t.Fatalf("n=%d %s step %d: %s", n, name, step, d)
				}
			}
		}
	}

	const steps = 650
	if b1t := 1 - math.Pow(0.9, steps); b1t != 1 {
		t.Fatalf("1-0.9^%d = %v: the run does not reach a bias correction of 1", steps, b1t)
	}
	var ps, rps Params
	for _, n := range adamLengths {
		p := NewMat(n, 1)
		fillMixed(rng, p.W, 0, 0)
		ps, rps = append(ps, p), append(rps, &Mat{Rows: n, Cols: 1, W: slices.Clone(p.W), G: make([]float64, n)})
	}
	opt := NewAdam(0.02)
	opt.WeightDecay = 1e-4
	ref := &adamReference{LR: opt.LR, Beta1: opt.Beta1, Beta2: opt.Beta2, Eps: opt.Eps, WeightDecay: opt.WeightDecay,
		m: map[*Mat][]float64{}, v: map[*Mat][]float64{}}
	for step := 0; step < steps; step++ {
		for k, p := range ps {
			fillMixed(rng, p.G, 0.7, 0)
			copy(rps[k].G, p.G)
		}
		scale := 1.0
		if step%3 == 0 {
			scale = 0.05 + rng.Float64()
		}
		opt.StepScaled(ps, scale)
		ref.StepScaled(rps, scale)
	}
	for k, p := range ps {
		r := rps[k]
		if d := adamDiff([3][]float64{p.W, opt.m[p], opt.v[p]}, [3][]float64{r.W, ref.m[r], ref.v[r]}); d != "" {
			t.Errorf("after %d steps, len %d: %s", steps, len(p.W), d)
		}
	}
}

// FuzzAdamKernel feeds arbitrary bit patterns — NaNs and subnormals
// included — and arbitrary step constants to adamUpdate and the scalar
// loop; every output must agree bit for bit (NaN as a class).
func FuzzAdamKernel(f *testing.F) {
	seed := make([]byte, 9*32)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, 1.0, 1e-4, 0.9, 0.999, 0.1, 0.001999, 0.02, 1e-8)
	f.Add(seed[:5*32], 0.37, 0.0, 0.9, 0.999, 1.0, 0.45, 0.02, 1e-8)
	f.Add([]byte{}, 1.0, 0.0, 0.9, 0.999, 1.0, 1.0, 0.02, 1e-8)
	f.Add(seed[:7*32], 0.5, 1e-4, 0.9, 0.999, 1.0, 0.3, 0.02, 1e-8) // b1t = 1: no m/b1t
	f.Fuzz(func(t *testing.T, data []byte, scale, wd, b1, b2, b1t, b2t, lr, eps float64) {
		n := len(data) / 32
		s := make([]float64, 4*n)
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		w, g, m, v := s[:n], s[n:2*n], s[2*n:3*n], s[3*n:]
		rw, rm, rv := slices.Clone(w), slices.Clone(m), slices.Clone(v)
		k := adamConsts{scale: scale, wd: wd, b1: b1, c1: 1 - b1, b2: b2, c2: 1 - b2, b1t: b1t, b2t: b2t, lr: lr, eps: eps}
		adamUpdate(w, g, m, v, &k)
		adamUpdateGo(rw, g, rm, rv, &k)
		if d := adamDiff([3][]float64{w, m, v}, [3][]float64{rw, rm, rv}); d != "" {
			t.Fatal(d)
		}
	})
}

// TestMatVecBackwardKernelMatchesReference pins matVecBackward bit for
// bit against the scalar loop over every shape up to 20×40 — widths
// that are not a multiple of four leave a Go tail — with accumulators
// already holding terms, rows whose gradient is +0 or −0 (skipped) and
// a sprinkling of special values.
func TestMatVecBackwardKernelMatchesReference(t *testing.T) {
	t.Logf("AVX kernels in use: %v", useAVX)
	rng := rand.New(rand.NewSource(28))
	for rows := 1; rows <= 20; rows++ {
		for cols := 1; cols <= 40; cols++ {
			m := NewMat(rows, cols)
			x := &Vec{V: make([]float64, cols), G: make([]float64, cols)}
			for _, s := range [][]float64{m.W, m.G, x.V, x.G} {
				fillMixed(rng, s, 0.05, 0.02)
			}
			g := make([]float64, rows)
			fillMixed(rng, g, 0, 0.02)
			for r := range g {
				switch r % 4 {
				case 1:
					g[r] = 0
				case 2:
					g[r] = math.Copysign(0, -1)
				}
			}
			rm := &Mat{Rows: rows, Cols: cols, W: m.W, G: slices.Clone(m.G)}
			rx := &Vec{V: x.V, G: slices.Clone(x.G)}
			matVecBackward(m, g, x)
			matVecBackwardGo(rm, g, rx, 0)
			if i := firstBitsDiff(m.G, rm.G); i >= 0 {
				t.Fatalf("%d×%d: M.G[%d] = %v, reference %v", rows, cols, i, m.G[i], rm.G[i])
			}
			if i := firstBitsDiff(x.G, rx.G); i >= 0 {
				t.Fatalf("%d×%d: x.G[%d] = %v, reference %v", rows, cols, i, x.G[i], rx.G[i])
			}
		}
	}
}

// TestClipScaleMatchesReference pins ClipScale's zero skipping: against
// the loop that summed every square, kept verbatim, the factor has the
// same bits on sparse, signed-zero, subnormal and overflowing
// gradients, for every clip setting.
func TestClipScaleMatchesReference(t *testing.T) {
	reference := func(ps Params, c float64) float64 {
		if c <= 0 {
			return 1
		}
		sum := 0.0
		for _, p := range ps {
			for _, g := range p.G {
				sum += g * g
			}
		}
		norm := math.Sqrt(sum)
		if norm <= c {
			return 1
		}
		return c / norm
	}
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		var ps Params
		for _, n := range adamLengths {
			p := NewMat(n, 1)
			switch trial % 4 {
			case 0: // sparse, as after one example
				fillMixed(rng, p.G, 0.9, 0)
			case 1: // signed zeros and subnormals only
				for i := range p.G {
					p.G[i] = specials[rng.Intn(6)]
				}
			case 2: // specials, overflow included
				fillMixed(rng, p.G, 0.5, 0.1)
			default: // all zero
			}
			ps = append(ps, p)
		}
		for _, c := range []float64{-1, 0, 5e-324, 0.05, 1, 1e300, math.Inf(1)} {
			got, want := ps.ClipScale(c), reference(ps, c)
			if !bitsMatch(got, want) {
				t.Fatalf("trial %d, clip %v: ClipScale %v, reference %v", trial, c, got, want)
			}
		}
	}
}

// TestInputProjKernelMatchesReference pins inputProj bit for bit
// against its scalar loop over every shape up to 20×20 (row counts that
// are and are not a multiple of four; the kernel takes only the former)
// and zero to three timestep groups, with special values among the
// weights and inputs.
func TestInputProjKernelMatchesReference(t *testing.T) {
	t.Logf("AVX kernels in use: %v", useAVX)
	rng := rand.New(rand.NewSource(43))
	for rows := 1; rows <= 20; rows++ {
		for cols := 1; cols <= 20; cols++ {
			for groups := 0; groups <= 3; groups++ {
				w, x4 := make([]float64, rows*cols), make([]float64, 4*cols*groups)
				fillMixed(rng, w, 0.05, 0.02)
				fillMixed(rng, x4, 0.1, 0.02)
				got, want := make([]float64, 4*rows*groups), make([]float64, 4*rows*groups)
				inputProj(w, rows, cols, x4, got)
				inputProjGo(w, rows, cols, x4, want)
				if i := firstBitsDiff(got, want); i >= 0 {
					t.Fatalf("%d×%d, %d groups: out[%d] = %v, reference %v", rows, cols, groups, i, got[i], want[i])
				}
			}
		}
	}
}

// TestClipScaleSparseMatchesReference pins the touched-set clip: with
// gradients that are +0 outside the rows of a row-sparse parameter and
// the columns of a column-sparse one, ClipScale given those rows and
// columns has the dense factor's bits — on sparse, signed-zero,
// subnormal and overflowing values, for every clip setting — and
// ZeroGrad given them leaves every gradient +0.
func TestClipScaleSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// pick returns k distinct indices below n, ascending.
	pick := func(n, k int) []int {
		idx := rng.Perm(n)[:k]
		slices.Sort(idx)
		return idx
	}
	for trial := 0; trial < 300; trial++ {
		emb, head := NewMat(37, 5), NewMat(2, 61)
		dense := []*Mat{NewMat(9, 7), NewMat(13, 1)}
		ps := Params{dense[0], emb, dense[1], head}
		rows, cols := pick(emb.Rows, rng.Intn(emb.Rows+1)), pick(head.Cols, rng.Intn(head.Cols+1))
		fill := func(g []float64) {
			switch trial % 3 {
			case 0:
				fillMixed(rng, g, 0.2, 0)
			case 1:
				for i := range g {
					g[i] = specials[rng.Intn(6)]
				}
			default:
				fillMixed(rng, g, 0.3, 0.1)
			}
		}
		for _, p := range dense {
			fill(p.G)
		}
		for _, r := range rows {
			fill(emb.G[r*emb.Cols : (r+1)*emb.Cols])
		}
		col := make([]float64, head.Rows)
		for _, c := range cols {
			fill(col)
			for r, g := range col {
				head.G[r*head.Cols+c] = g
			}
		}
		sparse := []Sparse{{M: emb, Idx: rows}, {M: head, Cols: true, Idx: cols}}
		for _, c := range []float64{-1, 0, 5e-324, 0.05, 1, 1e300, math.Inf(1)} {
			if got, want := ps.ClipScale(c, sparse...), ps.ClipScale(c); !bitsMatch(got, want) {
				t.Fatalf("trial %d, clip %v: touched-set ClipScale %v, dense %v", trial, c, got, want)
			}
		}
		ps.ZeroGrad(sparse...)
		for k, p := range ps {
			for i, g := range p.G {
				if math.Float64bits(g) != 0 {
					t.Fatalf("trial %d: after ZeroGrad, parameter %d gradient [%d] = %v", trial, k, i, g)
				}
			}
		}
	}
}

// BenchmarkAdamStep times one Adam update over the batch_kbc model's
// parameter count, through the kernel (before and after 1−β₁ᵗ rounds to
// 1) and through the scalar loop.
func BenchmarkAdamStep(b *testing.B) {
	const n = 13604
	for _, bc := range []struct {
		name string
		fn   func(w, grad, m, v []float64, k *adamConsts)
		step int // 1−β₁ᵗ rounds to 1 from step 356 on
	}{{"kernel", adamUpdate, 10}, {"kernel/b1t=1", adamUpdate, 400}, {"reference", adamUpdateGo, 10}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			fillMixed(rng, w, 0, 0)
			// No exact zeros: where the gradient stays 0, the weight and
			// its first moment decay into the subnormals after about
			// 14 000 steps, within one long run, and the time goes to
			// the CPU's subnormal assists.
			fillMixed(rng, g, 0, 0)
			k := newAdamConsts(1, 1e-4, 0.9, 0.999, 0.02, 1e-8, bc.step)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.fn(w, g, m, v, &k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

// BenchmarkMatVecBackward times the backward of the model's two matrix
// shapes — an LSTM gate's 16×16 and the attention projection's 16×32 —
// through the kernel and through the scalar loop, per matrix element.
func BenchmarkMatVecBackward(b *testing.B) {
	for _, shape := range [][2]int{{16, 16}, {16, 32}} {
		rows, cols := shape[0], shape[1]
		for _, bc := range []struct {
			name string
			fn   func(m *Mat, g []float64, x *Vec)
		}{
			{"kernel", matVecBackward},
			{"reference", func(m *Mat, g []float64, x *Vec) { matVecBackwardGo(m, g, x, 0) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx%d", bc.name, rows, cols), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				m := NewMat(rows, cols)
				x := &Vec{V: make([]float64, cols), G: make([]float64, cols)}
				g := make([]float64, rows)
				for _, s := range [][]float64{m.W, x.V, g} {
					fillMixed(rng, s, 0, 0)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bc.fn(m, g, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*cols), "ns/elem")
			})
		}
	}
}
