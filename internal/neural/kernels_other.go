//go:build !amd64

package neural

// useAVX and useGates are false off amd64: the Go loops are the only
// path.
const (
	useAVX   = false
	useGates = false
)

func hasAVX2FMA() bool { return false }

func adamAVX(w, grad, m, v []float64, k *adamConsts) {
	panic("neural: no AVX kernel on this architecture")
}

func matVecBackwardAVX(mw, mg, grad, xv, xg []float64, cols int) {
	panic("neural: no AVX kernel on this architecture")
}

func inputProjAVX(w, x4, out []float64, cols int) {
	panic("neural: no AVX kernel on this architecture")
}

func expAVX(dst, x []float64) int {
	panic("neural: no AVX kernel on this architecture")
}

func sigmoidAVX(dst, x []float64) int {
	panic("neural: no AVX kernel on this architecture")
}

func tanhAVX(dst, x []float64) {
	panic("neural: no AVX kernel on this architecture")
}
