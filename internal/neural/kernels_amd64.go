package neural

// useAVX reports whether the CPU executes AVX and the OS saves its
// 256-bit registers; it is read once, at start-up.
var useAVX = hasAVX()

// useGates reports whether the gate kernels (gates_amd64.s) run: the
// CPU has AVX2 and FMA, and math.Exp gives the kernels' bits on a
// probe, i.e. it takes the FMA path they replay.
var useGates = useAVX && hasAVX2FMA() && expMatchesMath()

func hasAVX() bool

// hasAVX2FMA reports whether the CPU has AVX2 and FMA; useAVX must hold
// too before either is used.
func hasAVX2FMA() bool

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

// inputProjAVX is inputProjGo for a matrix w of len(w)/cols rows, a
// multiple of four, over the len(x4)/(4·cols) timestep groups of x4.
//
//go:noescape
func inputProjAVX(w, x4, out []float64, cols int)

// expAVX sets dst[i] = math.Exp(x[i]) for i below the count it returns, a
// multiple of four: it stops at the first group of four holding a lane
// math.Exp takes off its normal path (or at len(x) &^ 3).
//
//go:noescape
func expAVX(dst, x []float64) int

// sigmoidAVX is expAVX for sigmoid(x) = 1/(1+math.Exp(−x)).
//
//go:noescape
func sigmoidAVX(dst, x []float64) int

// tanhAVX sets dst[i] = math.Tanh(x[i]) for the first len(x) &^ 3
// elements.
//
//go:noescape
func tanhAVX(dst, x []float64)
