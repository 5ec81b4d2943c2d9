package neural

// useAVX reports whether the CPU executes AVX and the OS saves its
// 256-bit registers; it is read once, at start-up.
var useAVX = hasAVX()

func hasAVX() bool

// adamAVX is adamUpdateGo over the first len(w) &^ 3 elements; grad, m
// and v are at least that long.
//
//go:noescape
func adamAVX(w, grad, m, v []float64, k *adamConsts)

// matVecBackwardAVX is matVecBackwardGo over columns [0, cols &^ 3) of
// a len(grad)×cols matrix (weights mw, gradients mg) and input (xv, xg).
// (g names a register in Go assembly, so the row gradients are grad.)
//
//go:noescape
func matVecBackwardAVX(mw, mg, grad, xv, xg []float64, cols int)
