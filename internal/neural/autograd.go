// Package neural is the from-scratch deep-learning substrate Fonduer's
// discriminative model runs on: a small reverse-mode automatic
// differentiation engine over vectors, parameter containers with Adam
// and SGD optimizers, and the layers the paper's model needs — word
// embeddings, LSTM cells (Section 2.2), bidirectional composition, the
// word-attention mechanism, and linear/softmax heads with a noise-aware
// cross-entropy loss that accepts the probabilistic labels produced by
// the generative label model.
//
// Everything is float64. A Tape owns the memory of the graph built on
// it: node values and gradients come from a bump arena, node headers
// from a slab, and the backward pass is a list of plain records — so a
// tape that is Reset and reused (one per training slot, pooled ones for
// inference) allocates nothing once it has seen its largest example.
// The hot, fixed-shape path — LSTM.Step and Attention.Apply — is one
// fused op each; the primitive ops stay for the ablation variants and
// as the reference the fused ops are tested against, and every fused op
// performs the same floating-point operations in the same accumulation
// order as the primitive composition it replaces.
//
// A single tape is single-threaded, but the shadow-parameter machinery
// (Mat.Shadow, Params.AccumGrad) lets any number of goroutines build
// independent graphs over shared weights with private gradient buffers
// — the substrate of the model package's deterministic data-parallel
// training. Gradient correctness is enforced by numeric gradient checks
// in the tests.
package neural

import "math"

// bump is a grow-only bump allocator whose elements are zero when
// handed out. When the current block is exhausted a larger one replaces
// it; slices taken earlier keep the old block alive and valid for as
// long as their holders need them, and after the next reset everything
// fits the new block, so a reused allocator stops allocating.
type bump[T any] struct {
	buf []T
	n   int
}

func (b *bump[T]) take(k int) []T {
	if b.n+k > len(b.buf) {
		b.buf = make([]T, max(2*len(b.buf), k, 64))
		b.n = 0
	}
	s := b.buf[b.n : b.n+k : b.n+k]
	b.n += k
	return s
}

// reset recycles the current block, restoring the all-zero invariant.
func (b *bump[T]) reset() {
	clear(b.buf[:b.n])
	b.n = 0
}

// Tape records operations for reverse-mode differentiation
// (define-by-run): each forward op appends one backward record and
// Backward replays the records in reverse order. The tape owns every
// node built on it — see Reset for the lifetime rule.
//
// A forward-only tape (NewForwardTape) computes the same values but
// keeps no records and no gradient buffers; it is the inference path.
type Tape struct {
	grad   bool
	floats bump[float64]
	vecs   bump[Vec]
	refs   bump[*Vec]
	ints   bump[int]
	ops    []op
	// scratch is the fused ops' backward workspace (pre-activation
	// gradients), sized on demand and reused across records: see work.
	scratch []float64
}

// NewTape returns an empty tape that records for Backward.
func NewTape() *Tape { return &Tape{grad: true} }

// NewForwardTape returns an empty forward-only tape: ops compute
// values, nodes carry no gradient (Vec.G is nil), nothing is recorded,
// and Backward panics. Leaf views taken through it never expose a
// parameter's gradient buffer, so any number of forward-only tapes may
// run over one model concurrently.
func NewForwardTape() *Tape { return &Tape{} }

// Reset recycles the tape for the next graph, keeping its memory. Every
// Vec and []*Vec obtained from the tape — op results, NewVec, Vecs, and
// the leaf views Row and AsVec — is dead after Reset: its header and
// its storage will be handed out again. Copy scalars out first.
func (t *Tape) Reset() {
	t.floats.reset()
	t.vecs.reset()
	t.refs.reset()
	t.ints.reset()
	t.ops = t.ops[:0]
}

// Vec is a node in the computation graph: a value vector and its
// gradient accumulator.
type Vec struct {
	V []float64
	G []float64
}

// Len returns the vector's dimension.
func (v *Vec) Len() int { return len(v.V) }

// NewVec allocates a zero vector node of dimension n on the heap — a
// leaf that outlives any tape (tests, external inputs).
func NewVec(n int) *Vec {
	return &Vec{V: make([]float64, n), G: make([]float64, n)}
}

// NewVec returns a zero vector node of dimension n owned by the tape.
func (t *Tape) NewVec(n int) *Vec {
	v := &t.vecs.take(1)[0]
	v.V = t.floats.take(n)
	if t.grad {
		v.G = t.floats.take(n)
	}
	return v
}

// Vecs returns a tape-owned slice of n nil node pointers — the
// sequence containers (embedded tokens, hidden states, mention
// representations) a forward pass fills in.
func (t *Tape) Vecs(n int) []*Vec { return t.refs.take(n) }

// view returns a tape-owned header over external storage.
func (t *Tape) view(v, g []float64) *Vec {
	x := &t.vecs.take(1)[0]
	x.V = v
	if t.grad {
		x.G = g
	}
	return x
}

// AsVec returns a leaf view sharing the matrix's storage, letting bias
// parameters participate in the graph directly.
func (t *Tape) AsVec(m *Mat) *Vec { return t.view(m.W, m.G) }

// Const returns a leaf view of values the graph reads but never
// differentiates — an encoding computed on an earlier graph and reused.
// The view shares v's storage, which must stay unchanged until Reset.
// Only a forward-only tape takes one: a recording tape panics, since
// Backward would have nowhere to put the leaf's gradient.
func (t *Tape) Const(v []float64) *Vec {
	if t.grad {
		panic("neural: Const on a recording tape")
	}
	return t.view(v, nil)
}

// Row returns a leaf view of one row (used by embedding lookups); the
// view shares storage, so gradients flow into the table.
func (t *Tape) Row(m *Mat, r int) *Vec {
	if r < 0 || r >= m.Rows {
		panic("neural: row out of range")
	}
	return t.view(m.W[r*m.Cols:(r+1)*m.Cols], m.G[r*m.Cols:(r+1)*m.Cols])
}

// work returns the tape's backward workspace, at least n long; its
// contents are whatever the previous record left there.
func (t *Tape) work(n int) []float64 {
	if len(t.scratch) < n {
		t.scratch = make([]float64, n)
	}
	return t.scratch[:n]
}

// keep copies an operand list into tape-owned storage so a record may
// hold it until Backward without the caller's slice escaping.
func (t *Tape) keep(vs []*Vec) []*Vec {
	if !t.grad {
		return nil
	}
	s := t.refs.take(len(vs))
	copy(s, vs)
	return s
}

// opKind names a backward rule.
type opKind uint8

const (
	opAdd opKind = iota
	opSub
	opMul
	opTanh
	opSigmoid
	opConcat
	opDot
	opMatVec
	opSoftmax
	opSum
	opWeightedSum
	opSparseLinear
	opMaxPool
	opCE
	opLSTMStep
	opAttention
)

// op is one backward record. Which fields are set depends on kind; the
// fused layers document their own use next to their backward rule.
type op struct {
	kind      opKind
	out, a, b *Vec
	c, out2   *Vec
	m         *Mat
	s         float64
	vs        []*Vec
	idx       []int
	aux       []float64
	lstm      *LSTM
	att       *Attention
}

func (t *Tape) record(o op) {
	if t.grad {
		t.ops = append(t.ops, o)
	}
}

// Backward seeds the output node with gradient 1 (for every component)
// and propagates through the tape in reverse.
func (t *Tape) Backward(out *Vec) {
	if !t.grad {
		panic("neural: Backward on a forward-only tape")
	}
	for i := range out.G {
		out.G[i] = 1
	}
	for i := len(t.ops) - 1; i >= 0; i-- {
		t.backward(&t.ops[i])
	}
}

func (t *Tape) backward(o *op) {
	out, a, b := o.out, o.a, o.b
	switch o.kind {
	case opAdd:
		for i := range out.G {
			a.G[i] += out.G[i]
			b.G[i] += out.G[i]
		}
	case opSub:
		for i := range out.G {
			a.G[i] += out.G[i]
			b.G[i] -= out.G[i]
		}
	case opMul:
		for i := range out.G {
			a.G[i] += out.G[i] * b.V[i]
			b.G[i] += out.G[i] * a.V[i]
		}
	case opTanh:
		for i := range out.G {
			a.G[i] += out.G[i] * (1 - out.V[i]*out.V[i])
		}
	case opSigmoid:
		for i := range out.G {
			a.G[i] += out.G[i] * out.V[i] * (1 - out.V[i])
		}
	case opConcat:
		off := 0
		for _, v := range o.vs {
			for i := range v.G {
				v.G[i] += out.G[off+i]
			}
			off += v.Len()
		}
	case opDot:
		g := out.G[0]
		for i := range a.V {
			a.G[i] += g * b.V[i]
			b.G[i] += g * a.V[i]
		}
	case opMatVec:
		matVecBackward(o.m, out.G, a)
	case opSoftmax:
		// dL/da_i = y_i * (g_i - Σ_j g_j y_j)
		dot := 0.0
		for j := range out.V {
			dot += out.G[j] * out.V[j]
		}
		for i := range a.G {
			a.G[i] += out.V[i] * (out.G[i] - dot)
		}
	case opSum:
		for _, v := range o.vs {
			for i := range v.G {
				v.G[i] += out.G[i]
			}
		}
	case opWeightedSum:
		for j, v := range o.vs {
			for i := range out.G {
				v.G[i] += out.G[i] * a.V[j]
				a.G[j] += out.G[i] * v.V[i]
			}
		}
	case opSparseLinear:
		m := o.m
		for _, c := range o.idx {
			if c < 0 || c >= m.Cols {
				continue
			}
			for r := 0; r < m.Rows; r++ {
				m.G[r*m.Cols+c] += out.G[r]
			}
		}
	case opMaxPool:
		for i, k := range o.idx {
			o.vs[k].G[i] += out.G[i]
		}
	case opCE:
		// a is q = softmax(logits), s the target probability.
		g := out.G[0]
		a.G[1] += g * (-o.s / (a.V[1] + ceEps))
		a.G[0] += g * (-(1 - o.s) / (a.V[0] + ceEps))
	case opLSTMStep:
		o.lstm.stepBackward(t, o)
	case opAttention:
		o.att.applyBackward(t, o)
	}
}

// Add returns a + b (element-wise; dimensions must match).
func (t *Tape) Add(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.NewVec(a.Len())
	for i := range out.V {
		out.V[i] = a.V[i] + b.V[i]
	}
	t.record(op{kind: opAdd, out: out, a: a, b: b})
	return out
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.NewVec(a.Len())
	for i := range out.V {
		out.V[i] = a.V[i] - b.V[i]
	}
	t.record(op{kind: opSub, out: out, a: a, b: b})
	return out
}

// Mul returns the Hadamard (element-wise) product a ∘ b.
func (t *Tape) Mul(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.NewVec(a.Len())
	for i := range out.V {
		out.V[i] = a.V[i] * b.V[i]
	}
	t.record(op{kind: opMul, out: out, a: a, b: b})
	return out
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Vec) *Vec {
	out := t.NewVec(a.Len())
	for i := range out.V {
		out.V[i] = math.Tanh(a.V[i])
	}
	t.record(op{kind: opTanh, out: out, a: a})
	return out
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Vec) *Vec {
	out := t.NewVec(a.Len())
	for i := range out.V {
		out.V[i] = sigmoid(a.V[i])
	}
	t.record(op{kind: opSigmoid, out: out, a: a})
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Concat concatenates vectors into one node.
func (t *Tape) Concat(vs ...*Vec) *Vec {
	n := 0
	for _, v := range vs {
		n += v.Len()
	}
	out := t.NewVec(n)
	off := 0
	for _, v := range vs {
		copy(out.V[off:], v.V)
		off += v.Len()
	}
	t.record(op{kind: opConcat, out: out, vs: t.keep(vs)})
	return out
}

// Dot returns the scalar product <a, b> as a 1-vector.
func (t *Tape) Dot(a, b *Vec) *Vec {
	mustSameLen(a, b)
	out := t.NewVec(1)
	out.V[0] = dot(a.V, b.V)
	t.record(op{kind: opDot, out: out, a: a, b: b})
	return out
}

// dot accumulates Σ a_i·b_i left to right from zero.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// MatVec returns M·x where M is a parameter matrix (rows×cols) and x
// has dimension cols.
func (t *Tape) MatVec(m *Mat, x *Vec) *Vec {
	if m.Cols != x.Len() {
		panic("neural: MatVec dimension mismatch")
	}
	out := t.NewVec(m.Rows)
	for r := range out.V {
		out.V[r] = dot(m.W[r*m.Cols:(r+1)*m.Cols], x.V)
	}
	t.record(op{kind: opMatVec, out: out, a: x, m: m})
	return out
}

// Softmax returns the softmax of a (numerically stabilized).
func (t *Tape) Softmax(a *Vec) *Vec {
	out := t.NewVec(a.Len())
	SoftmaxProbs(out.V, a.V)
	t.record(op{kind: opSoftmax, out: out, a: a})
	return out
}

// Sum returns the element-wise sum of several equal-length vectors.
func (t *Tape) Sum(vs ...*Vec) *Vec {
	if len(vs) == 0 {
		panic("neural: Sum of nothing")
	}
	out := t.NewVec(vs[0].Len())
	for _, v := range vs {
		mustSameLen(vs[0], v)
		for i := range out.V {
			out.V[i] += v.V[i]
		}
	}
	t.record(op{kind: opSum, out: out, vs: t.keep(vs)})
	return out
}

// WeightedSum returns Σ_j w_j · vs_j where the weights come from a
// vector node of dimension len(vs) — the attention aggregation.
func (t *Tape) WeightedSum(w *Vec, vs []*Vec) *Vec {
	if w.Len() != len(vs) {
		panic("neural: WeightedSum weight/vector count mismatch")
	}
	out := t.NewVec(vs[0].Len())
	for j, v := range vs {
		mustSameLen(vs[0], v)
		for i := range out.V {
			out.V[i] += w.V[j] * v.V[i]
		}
	}
	t.record(op{kind: opWeightedSum, out: out, a: w, vs: t.keep(vs)})
	return out
}

// SparseLinear computes out[r] = Σ_{c ∈ cols} M[r,c] — a linear layer
// applied to a sparse binary feature vector given by its active column
// indices. This is how the extended feature library enters the last
// layer of Fonduer's network (Section 4.2): the feature-library logits
// are added to the textual logits before the softmax. Columns out of
// range are ignored (frozen feature index returning unseen features).
// The tape keeps cols until Backward; the caller must not modify it
// before then.
func (t *Tape) SparseLinear(m *Mat, cols []int) *Vec {
	out := t.NewVec(m.Rows)
	for _, c := range cols {
		if c < 0 || c >= m.Cols {
			continue
		}
		for r := 0; r < m.Rows; r++ {
			out.V[r] += m.W[r*m.Cols+c]
		}
	}
	t.record(op{kind: opSparseLinear, out: out, m: m, idx: cols})
	return out
}

func mustSameLen(a, b *Vec) {
	if a.Len() != b.Len() {
		panic("neural: dimension mismatch")
	}
}
