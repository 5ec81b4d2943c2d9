package neural

import (
	"math"
	"math/rand"
	"slices"
)

// Embedding is a trainable word-embedding table. Rows are vocabulary
// ids; lookups return Vec views sharing the table's storage so
// gradients flow back into the embeddings (trained jointly with the
// rest of the network, Section 4.2).
type Embedding struct {
	Table *Mat
}

// NewEmbedding allocates a vocab×dim table initialized from the given
// initializer function (e.g. the deterministic hashed vectors of
// package nlp) or Xavier noise when init is nil.
func NewEmbedding(vocab, dim int, rng *rand.Rand, init func(id int) []float64) *Embedding {
	t := NewMatXavier(vocab, dim, rng)
	if init != nil {
		for id := 0; id < vocab; id++ {
			if v := init(id); len(v) == dim {
				copy(t.W[id*dim:(id+1)*dim], v)
			}
		}
	}
	return &Embedding{Table: t}
}

// Lookup returns the embedding of a vocabulary id as a leaf view on t.
func (e *Embedding) Lookup(t *Tape, id int) *Vec {
	return t.Row(e.Table, e.row(id))
}

// row is the table row Lookup reads for id: an id out of range reads
// row 0.
func (e *Embedding) row(id int) int {
	if id < 0 || id >= e.Table.Rows {
		return 0
	}
	return id
}

// Rows sets dst to the table rows that lookups of ids read, and that
// their backward pass can write: ascending and without repeats, the
// Idx of the table's Sparse entry.
func (e *Embedding) Rows(dst, ids []int) []int {
	dst = dst[:0]
	for _, id := range ids {
		dst = append(dst, e.row(id))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// Params returns the trainable table.
func (e *Embedding) Params() Params { return Params{e.Table} }

// LSTM is one direction's long short-term memory cell with input,
// forget and output gates (the equations of Section 2.2):
//
//	i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//	f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//	o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//	c_t = f_t ∘ c_{t-1} + i_t ∘ tanh(W_c x_t + U_c h_{t-1} + b_c)
//	h_t = o_t ∘ tanh(c_t)
type LSTM struct {
	InDim, HidDim  int
	Wi, Ui, Wf, Uf *Mat
	Wo, Uo, Wc, Uc *Mat
	Bi, Bf, Bo, Bc *Mat
}

// NewLSTM allocates an LSTM with Xavier-initialized weights and a
// forget-gate bias of +1 (the standard trick for gradient flow).
func NewLSTM(inDim, hidDim int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		InDim: inDim, HidDim: hidDim,
		Wi: NewMatXavier(hidDim, inDim, rng), Ui: NewMatXavier(hidDim, hidDim, rng),
		Wf: NewMatXavier(hidDim, inDim, rng), Uf: NewMatXavier(hidDim, hidDim, rng),
		Wo: NewMatXavier(hidDim, inDim, rng), Uo: NewMatXavier(hidDim, hidDim, rng),
		Wc: NewMatXavier(hidDim, inDim, rng), Uc: NewMatXavier(hidDim, hidDim, rng),
		Bi: NewMat(hidDim, 1), Bf: NewMat(hidDim, 1),
		Bo: NewMat(hidDim, 1), Bc: NewMat(hidDim, 1),
	}
	for i := range l.Bf.W {
		l.Bf.W[i] = 1
	}
	return l
}

// step computes one timestep from the input projections W·x of the
// four gates (gate g's row r at wx[g·gs + r·rs]), returning the new
// hidden and cell states. It is one fused op: the four gates, c and h
// are computed a block at a time and a single record replays their
// backward rules. The arithmetic is exactly that of the primitive
// composition
//
//	gate(W,U,B) = act(Add(Add(MatVec(W,x), MatVec(U,hPrev)), B))
//	i, f, o, g  = gate(Wi..), gate(Wf..), gate(Wo..), gate(Wc..)   (g: tanh)
//	c = Add(Mul(f,cPrev), Mul(i,g));  h = Mul(o, Tanh(c))
//
// — every dot product is summed left to right from zero, every
// intermediate the composition materialized is rounded to float64 here
// too — so values and gradients are bit-identical to it.
func (l *LSTM) step(t *Tape, x *Vec, wx []float64, gs, rs int, hPrev, cPrev *Vec) (h, c *Vec) {
	hid := l.HidDim
	if hPrev.Len() != hid || cPrev.Len() != hid {
		panic("neural: LSTM dimension mismatch")
	}
	h, c = t.NewVec(hid), t.NewVec(hid)
	// Saved activations, one block of hid each: i, f, o, g, tanh(c). They
	// hold the pre-activations until the nonlinearities run over whole
	// blocks.
	act := t.floats.take(5 * hid)
	ig, fg, og, gg, tc := act[:hid], act[hid:2*hid], act[2*hid:3*hid], act[3*hid:4*hid], act[4*hid:]
	hv := hPrev.V[:hid]
	for r := 0; r < hid; r++ {
		// The four gates' rows advance together: four independent
		// accumulation chains per loop, each in column order.
		ui, uf, uo, uc := l.Ui.W[r*hid:][:hid], l.Uf.W[r*hid:][:hid], l.Uo.W[r*hid:][:hid], l.Uc.W[r*hid:][:hid]
		var hi, hf, ho, hc float64
		for k, v := range hv {
			hi += ui[k] * v
			hf += uf[k] * v
			ho += uo[k] * v
			hc += uc[k] * v
		}
		ig[r] = (wx[r*rs] + hi) + l.Bi.W[r]
		fg[r] = (wx[gs+r*rs] + hf) + l.Bf.W[r]
		og[r] = (wx[2*gs+r*rs] + ho) + l.Bo.W[r]
		gg[r] = (wx[3*gs+r*rs] + hc) + l.Bc.W[r]
	}
	sigmoids(act[:3*hid], act[:3*hid])
	tanhs(gg, gg)
	cv, cp := c.V[:hid], cPrev.V[:hid]
	for r := range cv {
		cv[r] = float64(fg[r]*cp[r]) + float64(ig[r]*gg[r])
	}
	tanhs(tc, cv)
	for r, o := range og {
		h.V[r] = o * tc[r]
	}
	t.record(op{kind: opLSTMStep, lstm: l, a: x, b: hPrev, c: cPrev, out: h, out2: c, aux: act})
	return h, c
}

// stepBackward replays the backward rules of the composition step
// replaces, in reverse tape order: the element-wise tail (h, tanh(c),
// c, and the two products), then for each gate in the order g, o, f, i
// its activation, its bias add, the U·hPrev product and the W·x
// product. x.G, hPrev.G, cPrev.G and every weight gradient therefore
// receive their terms in the order the primitive tape delivered them.
// Record fields: a=x, b=hPrev, c=cPrev, out=h, out2=c, aux=activations.
func (l *LSTM) stepBackward(t *Tape, o *op) {
	hid := l.HidDim
	x, hPrev, cPrev, h, c := o.a, o.b, o.c, o.out, o.out2
	ig, fg, og, gg, tc := o.aux[:hid], o.aux[hid:2*hid], o.aux[2*hid:3*hid], o.aux[3*hid:4*hid], o.aux[4*hid:]
	w := t.work(4 * hid)
	di, df, do, dg := w[:hid], w[hid:2*hid], w[2*hid:3*hid], w[3*hid:]
	for j := 0; j < hid; j++ {
		dh := h.G[j]
		oG, tcG := dh*tc[j], dh*og[j]
		c.G[j] += tcG * (1 - tc[j]*tc[j])
		dc := c.G[j]
		iG, gG := dc*gg[j], dc*ig[j]
		fG := dc * cPrev.V[j]
		cPrev.G[j] += dc * fg[j]
		dg[j] = gG * (1 - gg[j]*gg[j])
		do[j] = oG * og[j] * (1 - og[j])
		df[j] = fG * fg[j] * (1 - fg[j])
		di[j] = iG * ig[j] * (1 - ig[j])
	}
	for _, g := range [...]struct {
		d       []float64
		w, u, b *Mat
	}{{dg, l.Wc, l.Uc, l.Bc}, {do, l.Wo, l.Uo, l.Bo}, {df, l.Wf, l.Uf, l.Bf}, {di, l.Wi, l.Ui, l.Bi}} {
		for j, d := range g.d {
			g.b.G[j] += d
		}
		matVecBackward(g.u, g.d, hPrev)
		matVecBackward(g.w, g.d, x)
	}
}

// Run processes a sequence left to right from zero initial state,
// returning the hidden state at every timestep (a tape-owned slice).
// The input projections W·x do not depend on the recurrence, so they
// are computed for the whole sequence up front, four timesteps at a
// time (inputProj); each timestep is then one step.
func (l *LSTM) Run(t *Tape, xs []*Vec) []*Vec {
	in, hid := l.InDim, l.HidDim
	groups := (len(xs) + 3) / 4
	// The inputs four timesteps to a group, column-major within it (a
	// short last group's missing timesteps are zero), and the gates'
	// projections: only the steps below read them, so they live in the
	// tape's scratch, not in its arena.
	gs := 4 * hid * groups
	buf := t.work(4*in*groups + 4*gs)
	x4, wx := buf[:4*in*groups], buf[4*in*groups:]
	clear(x4)
	for i, x := range xs {
		if x.Len() != in {
			panic("neural: LSTM dimension mismatch")
		}
		xq := x4[4*in*(i/4):]
		for k, v := range x.V[:in] {
			xq[4*k+i%4] = v
		}
	}
	// One block per gate, each laid out as inputProj writes it.
	for g, w := range [...]*Mat{l.Wi, l.Wf, l.Wo, l.Wc} {
		inputProj(w.W, hid, in, x4, wx[g*gs:(g+1)*gs])
	}
	h, c := t.NewVec(hid), t.NewVec(hid)
	out := t.Vecs(len(xs))
	for i, x := range xs {
		h, c = l.step(t, x, wx[4*hid*(i/4)+i%4:], gs, 4, h, c)
		out[i] = h
	}
	return out
}

// Params returns the LSTM's trainable matrices.
func (l *LSTM) Params() Params {
	return Params{l.Wi, l.Ui, l.Wf, l.Uf, l.Wo, l.Uo, l.Wc, l.Uc, l.Bi, l.Bf, l.Bo, l.Bc}
}

// BiLSTM pairs a forward and a backward LSTM; the representation of
// each timestep is the concatenation [h^F_i, h^B_i] (Section 2.2).
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM allocates both directions.
func NewBiLSTM(inDim, hidDim int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{Fwd: NewLSTM(inDim, hidDim, rng), Bwd: NewLSTM(inDim, hidDim, rng)}
}

// Run returns the concatenated forward/backward hidden states per
// timestep (dimension 2*HidDim), as a tape-owned slice.
func (b *BiLSTM) Run(t *Tape, xs []*Vec) []*Vec {
	fwd := b.Fwd.Run(t, xs)
	rev := t.Vecs(len(xs))
	for i := range xs {
		rev[i] = xs[len(xs)-1-i]
	}
	bwdRev := b.Bwd.Run(t, rev)
	out := t.Vecs(len(xs))
	for i := range xs {
		out[i] = t.Concat(fwd[i], bwdRev[len(xs)-1-i])
	}
	return out
}

// OutDim returns the per-timestep output dimension.
func (b *BiLSTM) OutDim() int { return b.Fwd.HidDim + b.Bwd.HidDim }

// Params returns both directions' parameters.
func (b *BiLSTM) Params() Params { return append(b.Fwd.Params(), b.Bwd.Params()...) }

// Attention is the word-attention mechanism of Section 4.2:
//
//	u_ik = tanh(W_w h_ik + b_w)
//	α_ik = softmax_k(u_ik · u_w)
//	t_i  = Σ_k α_ik u_ik
type Attention struct {
	Ww *Mat
	Bw *Mat
	Uw *Mat
}

// NewAttention allocates attention parameters for hidden dimension
// hidDim with internal dimension attDim.
func NewAttention(hidDim, attDim int, rng *rand.Rand) *Attention {
	return &Attention{
		Ww: NewMatXavier(attDim, hidDim, rng),
		Bw: NewMat(attDim, 1),
		Uw: NewMatXavier(attDim, 1, rng),
	}
}

// Apply aggregates a sequence of hidden states into one vector using
// learned word importances. It also returns the attention weights for
// inspection. Like the LSTM step it is one fused op whose arithmetic is
// exactly that of the primitive composition
//
//	u_k = Tanh(Add(MatVec(Ww,h_k), Bw));  s_k = Dot(u_k, Uw)
//	α = Softmax(Concat(s...));  out = WeightedSum(α, u)
func (a *Attention) Apply(t *Tape, hs []*Vec) (*Vec, *Vec) {
	dim, hdim := a.Ww.Rows, a.Ww.Cols
	out, alpha := t.NewVec(dim), t.NewVec(len(hs))
	us := t.floats.take(len(hs) * dim)
	scores := t.floats.take(len(hs))
	for k, h := range hs {
		if h.Len() != hdim {
			panic("neural: Attention.Apply dimension mismatch")
		}
		u := us[k*dim : (k+1)*dim]
		for r := range u {
			u[r] = dot(a.Ww.W[r*hdim:(r+1)*hdim], h.V) + a.Bw.W[r]
		}
		tanhs(u, u)
		scores[k] = dot(u, a.Uw.W)
	}
	SoftmaxProbs(alpha.V, scores)
	for k, w := range alpha.V {
		for i, v := range us[k*dim : (k+1)*dim] {
			out.V[i] += w * v
		}
	}
	t.record(op{kind: opAttention, att: a, out: out, a: alpha, vs: t.keep(hs), aux: us})
	return out, alpha
}

// applyBackward replays the composition's backward rules in reverse
// tape order: WeightedSum (k ascending), Softmax, then per hidden state
// k descending the Dot, Tanh, bias add and MatVec.
// Record fields: out, a=α, vs=hs, aux=u values (len(hs)×dim).
func (a *Attention) applyBackward(t *Tape, o *op) {
	dim := a.Ww.Rows
	out, alpha, hs, us := o.out, o.a, o.vs, o.aux
	du := t.work(dim)
	for k := range hs {
		for i, v := range us[k*dim : (k+1)*dim] {
			alpha.G[k] += out.G[i] * v
		}
	}
	sum := 0.0
	for k, w := range alpha.V {
		sum += alpha.G[k] * w
	}
	for k := len(hs) - 1; k >= 0; k-- {
		u := us[k*dim : (k+1)*dim]
		sG := alpha.V[k] * (alpha.G[k] - sum)
		for i, v := range u {
			uG := float64(out.G[i]*alpha.V[k]) + sG*a.Uw.W[i]
			a.Uw.G[i] += sG * v
			du[i] = uG * (1 - v*v)
			a.Bw.G[i] += du[i]
		}
		matVecBackward(a.Ww, du, hs[k])
	}
}

// Params returns the attention parameters.
func (a *Attention) Params() Params { return Params{a.Ww, a.Bw, a.Uw} }

// Linear is a fully connected layer y = Wx + b.
type Linear struct {
	W *Mat
	B *Mat
}

// NewLinear allocates a Xavier-initialized linear layer.
func NewLinear(inDim, outDim int, rng *rand.Rand) *Linear {
	return &Linear{W: NewMatXavier(outDim, inDim, rng), B: NewMat(outDim, 1)}
}

// Apply computes Wx + b.
func (l *Linear) Apply(t *Tape, x *Vec) *Vec {
	return t.Add(t.MatVec(l.W, x), t.AsVec(l.B))
}

// Params returns the layer's parameters.
func (l *Linear) Params() Params { return Params{l.W, l.B} }

// MaxPool returns the element-wise maximum over the sequence — the
// pooling strategy attention improves on (Section 2.2); kept as an
// ablation alternative.
func MaxPool(t *Tape, hs []*Vec) *Vec {
	if len(hs) == 0 {
		panic("neural: MaxPool of empty sequence")
	}
	n := hs[0].Len()
	out := t.NewVec(n)
	argmax := t.ints.take(n)
	for i := 0; i < n; i++ {
		best := hs[0].V[i]
		bestK := 0
		for k := 1; k < len(hs); k++ {
			if hs[k].V[i] > best {
				best = hs[k].V[i]
				bestK = k
			}
		}
		out.V[i] = best
		argmax[i] = bestK
	}
	t.record(op{kind: opMaxPool, out: out, vs: t.keep(hs), idx: argmax})
	return out
}

// NoiseAwareCE computes the noise-aware binary cross-entropy between a
// 2-class logit vector and a probabilistic target p = P(y=+1):
//
//	L = -(p·log q_1 + (1-p)·log q_0),  q = softmax(logits)
//
// It returns the loss value and a 1-vector node whose backward pass
// propagates dL into the logits. Class order: index 0 = "False",
// index 1 = "True".
func NoiseAwareCE(t *Tape, logits *Vec, p float64) (float64, *Vec) {
	if logits.Len() != 2 {
		panic("neural: NoiseAwareCE expects 2 logits")
	}
	q := t.Softmax(logits)
	loss := -(p*math.Log(q.V[1]+ceEps) + (1-p)*math.Log(q.V[0]+ceEps))
	out := t.NewVec(1)
	out.V[0] = loss
	t.record(op{kind: opCE, out: out, a: q, s: p})
	return loss, out
}

// ceEps keeps the cross-entropy's logarithms and their derivatives
// finite when a class probability underflows to zero.
const ceEps = 1e-12

// SoftmaxProbs writes the softmax probabilities of logits into dst
// (same length; numerically stabilized). It neither allocates nor
// touches a tape, so it also serves as the inference-side softmax.
func SoftmaxProbs(dst, logits []float64) {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		dst[i] = math.Exp(v - max)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}
