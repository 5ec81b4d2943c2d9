package neural

import "math"

// The LSTM's gate nonlinearities — a sigmoid on the input, forget and
// output gates, a tanh on the candidate cell and on c — run four lanes
// at a time where the CPU has AVX2 and FMA (gates_amd64.s). math.Exp on
// amd64 is assembly that takes an FMA path on such CPUs; each lane of
// the kernels replays that path operation for operation, and then
// sigmoid's 1/(1+e) or both of math.tanh's formulas, so every lane
// yields the scalar function's bits. useGates is the dispatch: it also
// checks, once at start-up, that math.Exp really takes the path the
// kernels replay (GODEBUG can switch math's FMA use off). Everywhere
// else the scalar functions run.

// sigmoids sets dst[i] = sigmoid(x[i]); dst may be x.
func sigmoids(dst, x []float64) {
	dst = dst[:len(x)]
	i := 0
	if useGates {
		n := len(x) &^ 3
		for i < n {
			i += sigmoidAVX(dst[i:n], x[i:n])
			if i < n {
				// A lane of this group is one math.Exp takes off its
				// normal path (an overflow, a denormal or zero result, a
				// NaN): the scalar function takes the whole group.
				for j := i; j < i+4; j++ {
					dst[j] = sigmoid(x[j])
				}
				i += 4
			}
		}
	}
	for ; i < len(x); i++ {
		dst[i] = sigmoid(x[i])
	}
}

// tanhs sets dst[i] = math.Tanh(x[i]); dst may be x.
func tanhs(dst, x []float64) {
	dst = dst[:len(x)]
	i := 0
	if useGates {
		i = len(x) &^ 3
		if i > 0 {
			tanhAVX(dst[:i], x[:i])
		}
	}
	for ; i < len(x); i++ {
		dst[i] = math.Tanh(x[i])
	}
}

// expMatchesMath runs expAVX over expProbe and compares every result
// with math.Exp's bits.
func expMatchesMath() bool {
	var got [len(expProbe)]float64
	if expAVX(got[:], expProbe[:]) != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expProbe holds arguments whose exponentials take math.Exp's normal
// path and at each of which its FMA and plain paths round differently
// (TestGateKernelsMatchReference keeps that so).
var expProbe = [...]float64{
	-7.09, -5.2, -3.14, -2.4, -1.6, -0.99, -0.45, -0.14,
	0.31, 0.85, 1.35, 2.23, 3.2, 4.3, 5.9, 7.4,
}
