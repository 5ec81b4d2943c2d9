package neural

import "math"

// The two loops training spends most of its arithmetic in — Adam's
// update and the matrix-vector backward — run four lanes at a time on
// CPUs with AVX (kernels_amd64.s). IEEE + − × ÷ √ are correctly rounded
// in packed form as in scalar form, so a lane that performs the scalar
// loop's operations in its order, with its rounding points and without
// fusing a multiply into an add, produces the scalar loop's bits. The
// Go loops below are that scalar loop: the fallback on every other CPU
// and the reference the kernels are tested against bit for bit.

// adamConsts is one Adam step's scalars, in the layout the AVX kernel
// broadcasts them from.
type adamConsts struct {
	scale, wd float64 // gradient multiplier (the clip factor), weight decay
	b1, c1    float64 // β₁ and 1−β₁
	b2, c2    float64 // β₂ and 1−β₂
	b1t, b2t  float64 // bias corrections 1−β₁ᵗ and 1−β₂ᵗ
	lr, eps   float64
}

// adamUpdate applies one Adam update to the weights w from the
// gradients grad, advancing the moment estimates m and v in place.
func adamUpdate(w, grad, m, v []float64, k *adamConsts) {
	if len(grad) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic("neural: adamUpdate length mismatch")
	}
	i := 0
	if useAVX {
		i = len(w) &^ 3
		if i > 0 {
			adamAVX(w[:i], grad, m, v, k)
		}
	}
	adamUpdateGo(w[i:], grad[i:], m[i:], v[i:], k)
}

// adamUpdateGo is adamUpdate's scalar loop.
func adamUpdateGo(w, grad, m, v []float64, k *adamConsts) {
	pg, m, v := grad[:len(w)], m[:len(w)], v[:len(w)]
	scale, wd, b1, b2, b1t, b2t, lr, eps := k.scale, k.wd, k.b1, k.b2, k.b1t, k.b2t, k.lr, k.eps
	for i := range w {
		g := float64(pg[i]*scale) + wd*w[i]
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mh := m[i] / b1t
		vh := v[i] / b2t
		w[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

// matVecBackward propagates g = dL/d(M·x) into M.G and x.G one row at
// a time, skipping rows whose gradient is exactly zero. Within a row
// the weight and the input gradient receive their terms column by
// column; x.G therefore accumulates rows in ascending order — the
// order every fused op that contains a matrix-vector product keeps.
// Columns are independent, so the kernel may take the leading multiple
// of four for all rows and the Go loop the rest.
func matVecBackward(m *Mat, g []float64, x *Vec) {
	rows, cols := m.Rows, m.Cols
	n := rows * cols
	if len(g) < rows || len(m.W) < n || len(m.G) < n || len(x.V) < cols || len(x.G) < cols {
		panic("neural: matVecBackward dimension mismatch")
	}
	c0 := 0
	if useAVX {
		c0 = cols &^ 3
		if c0 > 0 {
			matVecBackwardAVX(m.W[:n], m.G[:n], g[:rows], x.V[:cols], x.G[:cols], cols)
		}
	}
	if c0 < cols {
		matVecBackwardGo(m, g, x, c0)
	}
}

// matVecBackwardGo is matVecBackward's scalar loop over columns c0 and
// up.
func matVecBackwardGo(m *Mat, g []float64, x *Vec, c0 int) {
	cols := m.Cols
	for r, gr := range g[:m.Rows] {
		if gr == 0 {
			continue
		}
		mw := m.W[r*cols+c0 : (r+1)*cols]
		mg := m.G[r*cols+c0 : (r+1)*cols][:len(mw)]
		xv, xg := x.V[c0:cols][:len(mw)], x.G[c0:cols][:len(mw)]
		for c, w := range mw {
			mg[c] += gr * xv[c]
			xg[c] += gr * w
		}
	}
}

// inputProj computes an LSTM gate's input projections W·x_t for a whole
// sequence at once (they do not depend on the recurrence): x4 holds the
// inputs in groups of four timesteps, column-major within a group —
// x4[(q·cols+k)·4+j] is column k of timestep 4q+j — and out receives,
// for each group q and row r, the four timesteps' sums at
// out[(q·rows+r)·4 : +4]. Each sum is W's row times x_t accumulated
// from +0 in column order, as the LSTM step accumulated it in place.
func inputProj(w []float64, rows, cols int, x4, out []float64) {
	if cols == 0 {
		clear(out) // empty rows: every sum is its starting +0
		return
	}
	groups := len(x4) / (4 * cols)
	if len(w) < rows*cols || len(x4) != 4*cols*groups || len(out) < 4*rows*groups {
		panic("neural: inputProj dimension mismatch")
	}
	if useAVX && rows%4 == 0 && groups > 0 {
		inputProjAVX(w[:rows*cols], x4, out[:4*rows*groups], cols)
		return
	}
	inputProjGo(w, rows, cols, x4, out)
}

// inputProjGo is inputProj's scalar loop.
func inputProjGo(w []float64, rows, cols int, x4, out []float64) {
	for q := 0; q < len(x4)/(4*cols); q++ {
		xq := x4[4*q*cols:][:4*cols]
		for r := 0; r < rows; r++ {
			wr := w[r*cols:][:cols]
			for j := 0; j < 4; j++ {
				s := 0.0
				for k, wk := range wr {
					s += wk * xq[4*k+j]
				}
				out[4*(q*rows+r)+j] = s
			}
		}
	}
}
