//go:build !amd64

package neural

// useAVX is false off amd64: the Go loops are the only path.
const useAVX = false

func adamAVX(w, grad, m, v []float64, k *adamConsts) {
	panic("neural: no AVX kernel on this architecture")
}

func matVecBackwardAVX(mw, mg, grad, xv, xg []float64, cols int) {
	panic("neural: no AVX kernel on this architecture")
}
