package neural

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Step computes one timestep of the LSTM on its own: its input
// projections W·x summed in place, a dot product per gate row from +0 in
// column order, then step. It is the per-timestep reference Run is
// tested against, and the fused op TestFusedOpsMatchPrimitives pins to
// the primitive composition.
func (l *LSTM) Step(t *Tape, x, hPrev, cPrev *Vec) (h, c *Vec) {
	in, hid := l.InDim, l.HidDim
	if x.Len() != in {
		panic("neural: LSTM.Step dimension mismatch")
	}
	wx := t.floats.take(4 * hid)
	for g, w := range [...]*Mat{l.Wi, l.Wf, l.Wo, l.Wc} {
		for r := 0; r < hid; r++ {
			s := 0.0
			for k, v := range x.V[:in] {
				s += w.W[r*in+k] * v
			}
			wx[g*hid+r] = s
		}
	}
	return l.step(t, x, wx, hid, 1, hPrev, cPrev)
}

// TestLSTMRunMatchesStepReference pins Run — input projections hoisted
// for the whole sequence, four timesteps at a time — to a loop of Step,
// bit for bit: every hidden state, and after a backward pass every
// weight gradient and every input gradient, over hidden sizes that are
// and are not a multiple of four, input sizes 1–17 and sequences of 1–9
// timesteps (every length modulo four), with inputs that repeat.
func TestLSTMRunMatchesStepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, hid := range []int{1, 3, 4, 5, 8, 16} {
		for _, in := range []int{1, 2, 3, 4, 7, 16, 17} {
			for n := 1; n <= 9; n++ {
				l := NewLSTM(in, hid, rng)
				for _, p := range l.Params() {
					fillMixed(rng, p.W, 0.05, 0)
				}
				xs := make([]*Vec, n)
				for i := range xs {
					xs[i] = NewVec(in)
					fillMixed(rng, xs[i].V, 0.1, 0)
				}
				if n > 2 {
					xs[n-1] = xs[0] // one input at two timesteps
				}
				// Each side's loss weighs every hidden state by the same
				// fixed vector, so that every timestep gets a gradient.
				weigh := make([]float64, hid)
				fillMixed(rng, weigh, 0, 0)
				run := func(byStep bool) (states, grads [][]float64) {
					l.Params().ZeroGrad()
					for _, x := range xs {
						clear(x.G)
					}
					tape := NewTape()
					var hs []*Vec
					if byStep {
						h, c := tape.NewVec(hid), tape.NewVec(hid)
						for _, x := range xs {
							h, c = l.Step(tape, x, h, c)
							hs = append(hs, h)
						}
					} else {
						hs = l.Run(tape, xs)
					}
					w := FromSlice(weigh)
					var sum *Vec
					for _, h := range hs {
						states = append(states, slices.Clone(h.V))
						d := tape.Dot(h, w)
						if sum == nil {
							sum = d
						} else {
							sum = tape.Add(sum, d)
						}
					}
					tape.Backward(sum)
					for _, p := range l.Params() {
						grads = append(grads, slices.Clone(p.G))
					}
					for _, x := range xs {
						grads = append(grads, slices.Clone(x.G))
					}
					return states, grads
				}
				wantStates, wantGrads := run(true)
				gotStates, gotGrads := run(false)
				name := fmt.Sprintf("in=%d hid=%d n=%d", in, hid, n)
				for i := range wantStates {
					if j := firstBitsDiff(gotStates[i], wantStates[i]); j >= 0 {
						t.Fatalf("%s: h[%d][%d] = %v, Step %v", name, i, j, gotStates[i][j], wantStates[i][j])
					}
				}
				for i := range wantGrads {
					if j := firstBitsDiff(gotGrads[i], wantGrads[i]); j >= 0 {
						t.Fatalf("%s: gradient %d [%d] = %v, Step %v", name, i, j, gotGrads[i][j], wantGrads[i][j])
					}
				}
			}
		}
	}
}
