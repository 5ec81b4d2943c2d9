package neural

import (
	"math"
	"math/rand"
	"testing"
)

// FromSlice wraps values in a leaf node (gradient is tracked but the
// values are external inputs).
func FromSlice(vals []float64) *Vec {
	v := NewVec(len(vals))
	copy(v.V, vals)
	return v
}

// numericGradCheck compares analytic gradients of loss() with central
// finite differences for every parameter scalar.
func numericGradCheck(t *testing.T, name string, params Params, loss func() float64, tol float64) {
	t.Helper()
	params.ZeroGrad()
	base := loss()
	_ = base
	// Analytic pass already performed inside loss (caller contract:
	// loss() builds a tape, runs Backward, and returns the loss while
	// accumulating into params.G). To keep gradients from doubling we
	// zero first, call once, snapshot.
	params.ZeroGrad()
	loss()
	analytic := map[*Mat][]float64{}
	for _, p := range params {
		g := make([]float64, len(p.G))
		copy(g, p.G)
		analytic[p] = g
	}
	const h = 1e-5
	for pi, p := range params {
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + h
			params.ZeroGrad()
			up := loss()
			p.W[i] = orig - h
			params.ZeroGrad()
			down := loss()
			p.W[i] = orig
			numeric := (up - down) / (2 * h)
			got := analytic[p][i]
			diff := math.Abs(numeric - got)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
			if diff/scale > tol {
				t.Fatalf("%s: param %d[%d]: analytic %v vs numeric %v", name, pi, i, got, numeric)
			}
		}
	}
}

func TestGradientsLinearSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear(3, 2, rng)
	x := []float64{0.5, -1.2, 2.0}
	loss := func() float64 {
		tape := NewTape()
		l, node := NoiseAwareCE(tape, lin.Apply(tape, FromSlice(x)), 0.7)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "linear+softmaxCE", lin.Params(), loss, 1e-5)
}

func TestGradientsLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lstm := NewLSTM(2, 3, rng)
	head := NewLinear(3, 2, rng)
	xs := [][]float64{{0.3, -0.4}, {1.1, 0.2}, {-0.6, 0.9}}
	params := append(lstm.Params(), head.Params()...)
	loss := func() float64 {
		tape := NewTape()
		ins := make([]*Vec, len(xs))
		for i, x := range xs {
			ins[i] = FromSlice(x)
		}
		hs := lstm.Run(tape, ins)
		l, node := NoiseAwareCE(tape, head.Apply(tape, hs[len(hs)-1]), 0.2)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "lstm", params, loss, 1e-4)
}

func TestGradientsBiLSTMAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bi := NewBiLSTM(2, 2, rng)
	att := NewAttention(bi.OutDim(), 3, rng)
	head := NewLinear(att.OutDim(), 2, rng)
	xs := [][]float64{{0.3, -0.4}, {1.1, 0.2}}
	params := append(append(bi.Params(), att.Params()...), head.Params()...)
	loss := func() float64 {
		tape := NewTape()
		ins := make([]*Vec, len(xs))
		for i, x := range xs {
			ins[i] = FromSlice(x)
		}
		hs := bi.Run(tape, ins)
		agg, _ := att.Apply(tape, hs)
		l, node := NoiseAwareCE(tape, head.Apply(tape, agg), 0.9)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "bilstm+attention", params, loss, 1e-4)
}

func TestGradientsEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	emb := NewEmbedding(5, 3, rng, nil)
	head := NewLinear(3, 2, rng)
	params := append(emb.Params(), head.Params()...)
	loss := func() float64 {
		tape := NewTape()
		// Same id twice: gradient accumulates into one row.
		s := tape.Sum(emb.Lookup(tape, 2), emb.Lookup(tape, 2), emb.Lookup(tape, 4))
		l, node := NoiseAwareCE(tape, head.Apply(tape, s), 0.5)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "embedding", params, loss, 1e-5)
}

func TestGradientsMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lin := NewLinear(2, 2, rng)
	vals := [][]float64{{1, -2}, {0.5, 3}, {-1, 0}}
	loss := func() float64 {
		tape := NewTape()
		vs := make([]*Vec, len(vals))
		for i, v := range vals {
			vs[i] = FromSlice(v)
		}
		// Project each then maxpool (so parameters affect argmax path).
		ps := make([]*Vec, len(vs))
		for i, v := range vs {
			ps[i] = tape.Tanh(lin.Apply(tape, v))
		}
		pooled := MaxPool(tape, ps)
		l, node := NoiseAwareCE(tape, pooled, 0.4)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "maxpool", lin.Params(), loss, 1e-4)
}

func TestOpsForward(t *testing.T) {
	tape := NewTape()
	a := FromSlice([]float64{1, 2})
	b := FromSlice([]float64{3, 4})
	if got := tape.Add(a, b).V; got[0] != 4 || got[1] != 6 {
		t.Fatalf("Add = %v", got)
	}
	if got := tape.Sub(a, b).V; got[0] != -2 || got[1] != -2 {
		t.Fatalf("Sub = %v", got)
	}
	if got := tape.Mul(a, b).V; got[0] != 3 || got[1] != 8 {
		t.Fatalf("Mul = %v", got)
	}
	if got := tape.Dot(a, b).V[0]; got != 11 {
		t.Fatalf("Dot = %v", got)
	}
	if got := tape.Concat(a, b).V; len(got) != 4 || got[2] != 3 {
		t.Fatalf("Concat = %v", got)
	}
	sm := tape.Softmax(FromSlice([]float64{0, 0})).V
	if math.Abs(sm[0]-0.5) > 1e-12 {
		t.Fatalf("Softmax = %v", sm)
	}
	// Softmax is invariant to large shifts (stability).
	sm2 := tape.Softmax(FromSlice([]float64{1000, 1000})).V
	if math.Abs(sm2[0]-0.5) > 1e-12 {
		t.Fatalf("stabilized Softmax = %v", sm2)
	}
}

func TestDimensionPanics(t *testing.T) {
	tape := NewTape()
	a, b := NewVec(2), NewVec(3)
	for name, fn := range map[string]func(){
		"Add":    func() { tape.Add(a, b) },
		"Mul":    func() { tape.Mul(a, b) },
		"Dot":    func() { tape.Dot(a, b) },
		"MatVec": func() { tape.MatVec(NewMat(2, 2), b) },
		"WSum":   func() { tape.WeightedSum(a, []*Vec{NewVec(1)}) },
		"Sum":    func() { tape.Sum() },
		"CE":     func() { NoiseAwareCE(tape, NewVec(3), 0.5) },
		"Pool":   func() { MaxPool(tape, nil) },
		"Row":    func() { tape.Row(NewMat(2, 2), 5) },
		"Step":   func() { NewLSTM(2, 3, rand.New(rand.NewSource(1))).Step(tape, b, b, b) },
		"Att":    func() { NewAttention(2, 2, rand.New(rand.NewSource(1))).Apply(tape, []*Vec{b}) },
		"NoGrad": func() { NewForwardTape().Backward(a) },
		"Const":  func() { tape.Const(a.V) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic on dimension mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	for name, mk := range map[string]func() Optimizer{
		"sgd":  func() Optimizer { return SGD{LR: 0.1} },
		"adam": func() Optimizer { return NewAdam(0.05) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			lin := NewLinear(2, 2, rng)
			opt := mk()
			x := []float64{1, -1}
			lossOnce := func() float64 {
				tape := NewTape()
				l, node := NoiseAwareCE(tape, lin.Apply(tape, FromSlice(x)), 1.0)
				tape.Backward(node)
				return l
			}
			lin.Params().ZeroGrad()
			first := lossOnce()
			opt.Step(lin.Params())
			for i := 0; i < 50; i++ {
				lin.Params().ZeroGrad()
				lossOnce()
				opt.Step(lin.Params())
			}
			lin.Params().ZeroGrad()
			last := lossOnce()
			if last >= first {
				t.Fatalf("loss did not decrease: %v -> %v", first, last)
			}
			if last > 0.1 {
				t.Fatalf("loss still high: %v", last)
			}
		})
	}
}

func TestClipGrad(t *testing.T) {
	p := NewMat(1, 2)
	p.G[0], p.G[1] = 3, 4 // norm 5
	ps := Params{p}
	ps.ClipGrad(1)
	norm := math.Hypot(p.G[0], p.G[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm = %v", norm)
	}
	// No-op when under the limit.
	ps.ClipGrad(10)
	if math.Abs(math.Hypot(p.G[0], p.G[1])-1) > 1e-12 {
		t.Fatal("clip should be stable under limit")
	}
	ps.ClipGrad(0) // disabled
}

func TestParamsCount(t *testing.T) {
	ps := Params{NewMat(2, 3), NewMat(1, 4)}
	if ps.Count() != 10 {
		t.Fatalf("Count = %d", ps.Count())
	}
}

func TestSoftmaxProbs(t *testing.T) {
	p := make([]float64, 2)
	SoftmaxProbs(p, []float64{0, math.Log(3)})
	if math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("SoftmaxProbs = %v", p)
	}
}

func TestEmbeddingInitAndOOV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	emb := NewEmbedding(3, 2, rng, func(id int) []float64 {
		return []float64{float64(id), float64(id)}
	})
	tape := NewTape()
	if emb.Lookup(tape, 2).V[0] != 2 {
		t.Fatal("init function ignored")
	}
	// Out-of-range ids fall back to row 0.
	if emb.Lookup(tape, -1).V[0] != 0 || emb.Lookup(tape, 99).V[0] != 0 {
		t.Fatal("OOV lookup must use row 0")
	}
}

func TestBiLSTMOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bi := NewBiLSTM(2, 3, rng)
	tape := NewTape()
	xs := []*Vec{FromSlice([]float64{1, 0}), FromSlice([]float64{0, 1})}
	hs := bi.Run(tape, xs)
	if len(hs) != 2 || hs[0].Len() != 6 {
		t.Fatalf("bilstm output shape: %d x %d", len(hs), hs[0].Len())
	}
	if bi.OutDim() != 6 {
		t.Fatalf("OutDim = %d", bi.OutDim())
	}
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	att := NewAttention(4, 3, rng)
	tape := NewTape()
	hs := []*Vec{FromSlice([]float64{1, 0, 0, 0}), FromSlice([]float64{0, 1, 0, 0}), FromSlice([]float64{0, 0, 1, 0})}
	out, alpha := att.Apply(tape, hs)
	if out.Len() != 3 {
		t.Fatalf("attention out dim = %d", out.Len())
	}
	sum := 0.0
	for _, a := range alpha.V {
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("attention weights sum = %v", sum)
	}
}

func TestGradientsSparseLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewMatXavier(2, 6, rng)
	cols := []int{0, 3, 3, 5, -1, 99} // duplicates accumulate; invalid ignored
	loss := func() float64 {
		tape := NewTape()
		l, node := NoiseAwareCE(tape, tape.SparseLinear(w, cols), 0.8)
		tape.Backward(node)
		return l
	}
	numericGradCheck(t, "sparselinear", Params{w}, loss, 1e-6)
}

func TestSparseLinearForward(t *testing.T) {
	w := NewMat(2, 3)
	for i := range w.W {
		w.W[i] = float64(i) // rows: [0 1 2], [3 4 5]
	}
	tape := NewTape()
	out := tape.SparseLinear(w, []int{0, 2})
	if out.V[0] != 2 || out.V[1] != 8 {
		t.Fatalf("SparseLinear = %v", out.V)
	}
	empty := tape.SparseLinear(w, nil)
	if empty.V[0] != 0 || empty.V[1] != 0 {
		t.Fatalf("empty SparseLinear = %v", empty.V)
	}
}

// shadowLoss runs one forward/backward of a tiny linear model through
// the given layer instance and returns the loss; gradients accumulate
// into whatever Mats the instance holds.
func shadowLoss(t *Tape, lin *Linear, x []float64, target float64) float64 {
	l, node := NoiseAwareCE(t, lin.Apply(t, FromSlice(x)), target)
	t.Backward(node)
	return l
}

func TestShadowSharesWeightsPrivateGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lin := NewLinear(3, 2, rng)
	sh := lin.Shadow()
	if &sh.W.W[0] != &lin.W.W[0] || &sh.B.W[0] != &lin.B.W[0] {
		t.Fatal("shadow must share weight storage")
	}
	if &sh.W.G[0] == &lin.W.G[0] {
		t.Fatal("shadow must have a private gradient buffer")
	}
	x := []float64{0.4, -0.9, 1.2}

	// Gradients through the shadow land only in the shadow.
	lin.Params().ZeroGrad()
	shadowLoss(NewTape(), sh, x, 0.7)
	for _, g := range lin.W.G {
		if g != 0 {
			t.Fatal("master gradients must stay untouched by a shadow pass")
		}
	}

	// And they are bitwise the gradients the master pass produces.
	shadowLoss(NewTape(), lin, x, 0.7)
	for i := range lin.W.G {
		if lin.W.G[i] != sh.W.G[i] {
			t.Fatalf("grad[%d]: master %v shadow %v", i, lin.W.G[i], sh.W.G[i])
		}
	}
}

func TestAccumGradFixedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lin := NewLinear(2, 2, rng)
	master := lin.Params()
	exs := [][]float64{{0.1, 0.9}, {-1.2, 0.3}, {0.7, 0.7}}

	// Reference: sequential accumulation into the master, example order.
	master.ZeroGrad()
	for _, x := range exs {
		shadowLoss(NewTape(), lin, x, 0.5)
	}
	want := append([]float64(nil), lin.W.G...)

	// Shadows filled in any order, reduced in example-index order.
	shadows := make([]*Linear, len(exs))
	for i := range shadows {
		shadows[i] = lin.Shadow()
	}
	for _, i := range []int{2, 0, 1} { // fill order must not matter
		shadowLoss(NewTape(), shadows[i], exs[i], 0.5)
	}
	master.ZeroGrad()
	for i := range shadows {
		master.AccumGrad(shadows[i].Params())
	}
	for i := range want {
		if lin.W.G[i] != want[i] {
			t.Fatalf("grad[%d]: accum %v sequential %v", i, lin.W.G[i], want[i])
		}
	}
}

func TestScaleGrad(t *testing.T) {
	m := NewMat(1, 3)
	m.G[0], m.G[1], m.G[2] = 2, -4, 8
	Params{m}.ScaleGrad(0.5)
	if m.G[0] != 1 || m.G[1] != -2 || m.G[2] != 4 {
		t.Fatalf("ScaleGrad = %v", m.G)
	}
}

func TestTapeResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lin := NewLinear(3, 2, rng)
	x := []float64{0.5, -0.2, 0.8}

	lin.Params().ZeroGrad()
	shadowLoss(NewTape(), lin, x, 0.3)
	want := append([]float64(nil), lin.W.G...)

	tape := NewTape()
	shadowLoss(tape, lin, []float64{2, 2, 2}, 0.9) // pollute, then reuse
	tape.Reset()
	lin.Params().ZeroGrad()
	shadowLoss(tape, lin, x, 0.3)
	for i := range want {
		if lin.W.G[i] != want[i] {
			t.Fatalf("reused tape grad[%d]: %v want %v", i, lin.W.G[i], want[i])
		}
	}
}

// seqLoss runs one forward/backward of embedding -> Bi-LSTM ->
// attention -> linear -> CE over the id sequence and returns the loss.
func seqLoss(tape *Tape, emb *Embedding, bi *BiLSTM, att *Attention, head *Linear, ids []int) float64 {
	xs := tape.Vecs(len(ids))
	for i, id := range ids {
		xs[i] = emb.Lookup(tape, id)
	}
	agg, _ := att.Apply(tape, bi.Run(tape, xs))
	l, node := NoiseAwareCE(tape, head.Apply(tape, agg), 0.3)
	tape.Backward(node)
	return l
}

// TestTapeArenaReuse covers the arena's two hazards. A fresh tape
// starts with no memory, so its first example outgrows the arena many
// times mid-graph (blocks are replaced while earlier nodes still live
// in the old ones); and a tape that has held a long example must hand
// the following short one memory as clean as a fresh tape's. Both must
// give bit-identical losses and gradients to a tape already warm.
func TestTapeArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	emb := NewEmbedding(9, 4, rng, nil)
	bi := NewBiLSTM(4, 5, rng)
	att := NewAttention(bi.OutDim(), 3, rng)
	head := NewLinear(att.OutDim(), 2, rng)
	params := append(append(append(emb.Params(), bi.Params()...), att.Params()...), head.Params()...)
	long := make([]int, 60)
	for i := range long {
		long[i] = (i * 7) % 9
	}
	short := []int{3, 1, 3}

	run := func(tape *Tape, ids []int) (float64, [][]float64) {
		params.ZeroGrad()
		tape.Reset()
		l := seqLoss(tape, emb, bi, att, head, ids)
		grads := make([][]float64, len(params))
		for i, p := range params {
			grads[i] = append([]float64(nil), p.G...)
		}
		return l, grads
	}
	same := func(label string, l1, l2 float64, g1, g2 [][]float64) {
		t.Helper()
		if math.Float64bits(l1) != math.Float64bits(l2) {
			t.Fatalf("%s: loss %v vs %v", label, l1, l2)
		}
		for p := range g1 {
			if !sameBits(g1[p], g2[p]) {
				t.Fatalf("%s: gradient of param %d differs", label, p)
			}
		}
	}

	reused := NewTape()
	growLoss, growGrads := run(reused, long) // grows mid-graph, repeatedly
	warmLoss, warmGrads := run(reused, long) // same tape, arena now large enough
	same("growing vs warm arena", growLoss, warmLoss, growGrads, warmGrads)

	freshLoss, freshGrads := run(NewTape(), short)
	afterLoss, afterGrads := run(reused, short) // short example after a long one
	same("short after long vs fresh tape", freshLoss, afterLoss, freshGrads, afterGrads)

	// The forward-only tape computes the same values, with no gradients.
	ft := NewForwardTape()
	xs := ft.Vecs(len(short))
	for i, id := range short {
		xs[i] = emb.Lookup(ft, id)
	}
	agg, _ := att.Apply(ft, bi.Run(ft, xs))
	logits := head.Apply(ft, agg)
	if logits.G != nil {
		t.Fatal("forward-only nodes must carry no gradient buffer")
	}
	// A copy of the encoding, fed back as a constant leaf, yields the
	// head's logits bit for bit.
	if again := head.Apply(ft, ft.Const(append([]float64(nil), agg.V...))); !sameBits(again.V, logits.V) {
		t.Fatalf("logits over a Const encoding %v, over the graph's %v", again.V, logits.V)
	}
	_, node := NoiseAwareCE(ft, logits, 0.3)
	if math.Float64bits(node.V[0]) != math.Float64bits(freshLoss) {
		t.Fatalf("forward-only loss %v, recording tape %v", node.V[0], freshLoss)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refLSTMStep is LSTM.Step as the composition of primitive ops it was
// before the cell was fused — kept as the reference the fused op must
// match bit for bit, values and gradients.
func refLSTMStep(l *LSTM, t *Tape, x, hPrev, cPrev *Vec) (h, c *Vec) {
	gate := func(W, U, B *Mat) *Vec {
		return t.Sigmoid(t.Add(t.Add(t.MatVec(W, x), t.MatVec(U, hPrev)), t.AsVec(B)))
	}
	i := gate(l.Wi, l.Ui, l.Bi)
	f := gate(l.Wf, l.Uf, l.Bf)
	o := gate(l.Wo, l.Uo, l.Bo)
	cand := t.Tanh(t.Add(t.Add(t.MatVec(l.Wc, x), t.MatVec(l.Uc, hPrev)), t.AsVec(l.Bc)))
	c = t.Add(t.Mul(f, cPrev), t.Mul(i, cand))
	h = t.Mul(o, t.Tanh(c))
	return h, c
}

// refAttentionApply is Attention.Apply as the primitive composition it
// was before fusion.
func refAttentionApply(a *Attention, t *Tape, hs []*Vec) (*Vec, *Vec) {
	us := make([]*Vec, len(hs))
	scores := make([]*Vec, len(hs))
	for k, h := range hs {
		us[k] = t.Tanh(t.Add(t.MatVec(a.Ww, h), t.AsVec(a.Bw)))
		scores[k] = t.Dot(us[k], t.AsVec(a.Uw))
	}
	alpha := t.Softmax(t.Concat(scores...))
	return t.WeightedSum(alpha, us), alpha
}

// TestFusedOpsMatchPrimitives runs embedding -> Bi-LSTM -> attention ->
// masked head -> CE twice — once through the fused LSTM.Step and
// Attention.Apply, once through their primitive references — and
// demands identical bits everywhere: every hidden state, the attention
// weights, the loss, and the gradient of every parameter and of the
// free input. Token ids repeat, so embedding rows accumulate from both
// directions and several timesteps. A third LSTM reads the first hidden
// states beside the attention (two consumers of one node) and reaches
// the loss only through a mask, so its last step sees exactly-zero
// gate gradients — the rows the matrix-vector backward skips.
func TestFusedOpsMatchPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const in, hid, attDim = 3, 4, 5
	emb := NewEmbedding(6, in, rng, nil)
	bi := NewBiLSTM(in, hid, rng)
	att := NewAttention(2*hid, attDim, rng)
	head := NewLinear(attDim, 2, rng)
	tail := NewLSTM(2*hid, hid, rng)
	tailHead := NewLinear(hid, 2, rng)
	params := append(append(append(emb.Params(), bi.Params()...), att.Params()...), head.Params()...)
	params = append(append(params, tail.Params()...), tailHead.Params()...)
	tailMask := FromSlice([]float64{0, 1, 0, 0})
	ids := []int{2, 5, 2, 0, 5, 2, 1}
	free := FromSlice([]float64{0.7, -1.3, 0.2}) // a non-parameter input, used at two positions
	mask := FromSlice([]float64{1, 0, 1, 0, 0})

	type result struct {
		states [][]float64
		alpha  []float64
		loss   float64
		grads  [][]float64
		freeG  []float64
	}
	run := func(step func(*LSTM, *Tape, *Vec, *Vec, *Vec) (*Vec, *Vec), apply func(*Attention, *Tape, []*Vec) (*Vec, *Vec)) result {
		params.ZeroGrad()
		for i := range free.G {
			free.G[i] = 0
		}
		tape := NewTape()
		xs := make([]*Vec, 0, len(ids)+2)
		for _, id := range ids {
			xs = append(xs, emb.Lookup(tape, id))
		}
		xs = append(xs[:3], append([]*Vec{free}, append(xs[3:], free)...)...)
		runDir := func(l *LSTM, seq []*Vec) []*Vec {
			h, c := tape.NewVec(hid), tape.NewVec(hid)
			out := make([]*Vec, len(seq))
			for i, x := range seq {
				h, c = step(l, tape, x, h, c)
				out[i] = h
			}
			return out
		}
		rev := make([]*Vec, len(xs))
		for i := range xs {
			rev[i] = xs[len(xs)-1-i]
		}
		fwd, bwd := runDir(bi.Fwd, xs), runDir(bi.Bwd, rev)
		var res result
		hs := make([]*Vec, len(xs))
		for i := range xs {
			hs[i] = tape.Concat(fwd[i], bwd[len(xs)-1-i])
			res.states = append(res.states, append([]float64(nil), hs[i].V...))
		}
		agg, alpha := apply(att, tape, hs)
		res.alpha = append([]float64(nil), alpha.V...)
		th := runDir(tail, hs[:3])[2]
		res.states = append(res.states, append([]float64(nil), th.V...))
		logits := tape.Add(head.Apply(tape, tape.Mul(agg, mask)), tailHead.Apply(tape, tape.Mul(th, tailMask)))
		l, node := NoiseAwareCE(tape, logits, 0.8)
		tape.Backward(node)
		res.loss = l
		for _, p := range params {
			res.grads = append(res.grads, append([]float64(nil), p.G...))
		}
		res.freeG = append([]float64(nil), free.G...)
		return res
	}

	ref := run(refLSTMStep, refAttentionApply)
	fused := run((*LSTM).Step, (*Attention).Apply)
	for i := range ref.states {
		if !sameBits(ref.states[i], fused.states[i]) {
			t.Fatalf("hidden state %d: fused %v, primitives %v", i, fused.states[i], ref.states[i])
		}
	}
	if !sameBits(ref.alpha, fused.alpha) {
		t.Fatalf("attention weights: fused %v, primitives %v", fused.alpha, ref.alpha)
	}
	if math.Float64bits(ref.loss) != math.Float64bits(fused.loss) {
		t.Fatalf("loss: fused %v, primitives %v", fused.loss, ref.loss)
	}
	nonzero := false
	for p := range ref.grads {
		if !sameBits(ref.grads[p], fused.grads[p]) {
			t.Fatalf("gradient of param %d: fused %v, primitives %v", p, fused.grads[p], ref.grads[p])
		}
		for _, g := range ref.grads[p] {
			nonzero = nonzero || g != 0
		}
	}
	if !sameBits(ref.freeG, fused.freeG) {
		t.Fatalf("input gradient: fused %v, primitives %v", fused.freeG, ref.freeG)
	}
	if !nonzero {
		t.Fatal("all gradients zero; test is vacuous")
	}
}

// TestFusedOpsGradients checks the fused ops' analytic gradients
// against central differences, including the gradient that reaches the
// embedding rows through both LSTM directions.
func TestFusedOpsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	emb := NewEmbedding(4, 2, rng, nil)
	bi := NewBiLSTM(2, 3, rng)
	att := NewAttention(bi.OutDim(), 2, rng)
	head := NewLinear(att.OutDim(), 2, rng)
	params := append(append(append(emb.Params(), bi.Params()...), att.Params()...), head.Params()...)
	loss := func() float64 {
		return seqLoss(NewTape(), emb, bi, att, head, []int{1, 3, 1, 0})
	}
	numericGradCheck(t, "fused embedding+bilstm+attention", params, loss, 1e-4)
}
