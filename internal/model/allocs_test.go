//go:build !race

package model

import "testing"

// TestAllocsSteadyState is the model-level allocation guard (the race
// detector changes allocation counts and empties sync.Pool at random,
// hence the build tag). Training: two otherwise identical runs that
// differ only in epoch count must allocate the same number of objects,
// i.e. once the slot's tape is warm a training step — encode lookup,
// forward, loss, backward, clip, Adam — allocates nothing. Inference: a
// warm PredictProb, pooled tape and token encoding included, allocates
// nothing either (the candidate's "X3" token takes the lowercasing
// path).
func TestAllocsSteadyState(t *testing.T) {
	exs := mixedDataset(12)
	train := func(epochs int) func() {
		return func() {
			NewFonduer(1, 10, 3, exs).Train(exs, TrainOptions{Epochs: epochs, LR: 0.02, L2: 1e-4})
		}
	}
	short, long := testing.AllocsPerRun(3, train(2)), testing.AllocsPerRun(3, train(6))
	if steps := float64(4 * len(exs)); long != short {
		t.Errorf("training: %v allocations at 2 epochs, %v at 6 — %.2f per steady-state step, want 0",
			short, long, (long-short)/steps)
	}

	m := NewFonduer(1, 10, 3, exs)
	m.Train(exs, TrainOptions{Epochs: 1})
	var sink float64
	predict := func() { sink += m.PredictProb(exs[1]) }
	predict()
	predict()
	if n := testing.AllocsPerRun(100, predict); n != 0 {
		t.Errorf("warm PredictProb: %v allocations per call, want 0", n)
	}
	_ = sink
}
