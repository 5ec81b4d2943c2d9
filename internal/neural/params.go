package neural

import (
	"math"
	"math/rand"
)

// Mat is a trainable parameter matrix (or vector when Cols==1 is not
// required; biases use Rows=n, Cols=1 semantics via Param helpers).
// W holds row-major weights; G accumulates gradients.
type Mat struct {
	Rows, Cols int
	W, G       []float64
}

// NewMat allocates a zeroed rows×cols parameter matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, W: make([]float64, rows*cols), G: make([]float64, rows*cols)}
}

// NewMatXavier allocates a matrix initialized with Xavier/Glorot
// uniform weights drawn from the provided RNG (deterministic given the
// seed).
func NewMatXavier(rows, cols int, rng *rand.Rand) *Mat {
	m := NewMat(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range m.W {
		m.W[i] = (2*rng.Float64() - 1) * limit
	}
	return m
}

// Params is the set of trainable matrices of a model.
type Params []*Mat

// Sparse names the part of one parameter's gradient a training step
// can have written when that is not all of it: the rows Idx of M (an
// embedding's looked-up ids, Embedding.Rows), or its columns Idx when
// Cols is set (a sparse head's active features, SparseCols). Idx is
// ascending and holds no repeats. Outside it the gradient still holds
// the +0 that ZeroGrad left there.
type Sparse struct {
	M    *Mat
	Cols bool
	Idx  []int
}

// sparseOf returns the entry of sparse that names p, or nil: p is dense.
// ClipScale and ZeroGrad each walk the named rows and columns
// themselves: a shared walker with a callback per row and per column
// made the two together 2.1× slower in a profile of
// BenchmarkTrain.
func sparseOf(p *Mat, sparse []Sparse) *Sparse {
	for i := range sparse {
		if sparse[i].M == p {
			return &sparse[i]
		}
	}
	return nil
}

// ZeroGrad clears the gradients: all of every parameter that sparse
// does not name, and the named rows or columns of those it does. With
// sparse naming what a step wrote, it restores an all-zero gradient
// without reading the rest.
func (ps Params) ZeroGrad(sparse ...Sparse) {
	for _, p := range ps {
		s := sparseOf(p, sparse)
		switch {
		case s == nil:
			clear(p.G)
		case s.Cols:
			for r := 0; r < p.Rows; r++ {
				row := p.G[r*p.Cols:][:p.Cols]
				for _, c := range s.Idx {
					row[c] = 0
				}
			}
		default:
			for _, r := range s.Idx {
				clear(p.G[r*p.Cols:][:p.Cols])
			}
		}
	}
}

// ClipScale returns the factor that brings the gradients' global L2
// norm down to c: c/norm when the norm exceeds c, otherwise exactly 1
// (also when c <= 0, clipping disabled). Multiplying by 1 is exact, so
// callers may apply the factor unconditionally.
//
// The squares are summed in parameter order, and only where a gradient
// can be nonzero: sparse names the rows or columns a step wrote of its
// sparse parameters (see ZeroGrad), and every other entry of those is
// +0. Within what is read, groups of four exactly-zero gradients are
// skipped too. Both skips are exact: the sum starts at +0 and every g·g
// is ≥ +0, so adding 0·0 changes no bit. (One test per element costs
// more in mispredicted branches than the adds it saves.)
func (ps Params) ClipScale(c float64, sparse ...Sparse) float64 {
	if c <= 0 {
		return 1
	}
	sum := 0.0
	for _, p := range ps {
		s := sparseOf(p, sparse)
		switch {
		case s == nil:
			sum = addSquares(sum, p.G)
		case s.Cols:
			for r := 0; r < p.Rows; r++ {
				row := p.G[r*p.Cols:][:p.Cols]
				for _, c := range s.Idx {
					sum += row[c] * row[c]
				}
			}
		default:
			for _, r := range s.Idx {
				sum = addSquares(sum, p.G[r*p.Cols:][:p.Cols])
			}
		}
	}
	norm := math.Sqrt(sum)
	if norm <= c {
		return 1
	}
	return c / norm
}

// addSquares returns sum plus the squares of g, added in order.
func addSquares(sum float64, g []float64) float64 {
	for ; len(g) >= 4; g = g[4:] {
		// ±0 has no bit set but the sign.
		if (math.Float64bits(g[0])|math.Float64bits(g[1])|math.Float64bits(g[2])|math.Float64bits(g[3]))<<1 == 0 {
			continue
		}
		sum += g[0] * g[0]
		sum += g[1] * g[1]
		sum += g[2] * g[2]
		sum += g[3] * g[3]
	}
	for _, x := range g {
		sum += x * x
	}
	return sum
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	m map[*Mat][]float64
	v map[*Mat][]float64
}

// NewAdam returns Adam with the conventional defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Mat][]float64{}, v: map[*Mat][]float64{}}
}

// StepScaled applies one update from gradients multiplied by scale —
// the clip factor (ClipScale) folded into the optimizer's own pass over
// the parameters — and leaves the gradients untouched (callers ZeroGrad
// between steps). The product is rounded before use, so the update
// equals scaling the gradients in place and then stepping at scale 1,
// bit for bit (x·1 is x).
func (o *Adam) StepScaled(ps Params, scale float64) {
	o.t++
	k := adamConsts{
		scale: scale, wd: o.WeightDecay,
		b1: o.Beta1, c1: 1 - o.Beta1,
		b2: o.Beta2, c2: 1 - o.Beta2,
		b1t: 1 - math.Pow(o.Beta1, float64(o.t)),
		b2t: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr:  o.LR, eps: o.Eps,
	}
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
		adamUpdate(p.W, p.G, m, v, &k)
	}
}
