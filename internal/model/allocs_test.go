//go:build !race

package model

import (
	"slices"
	"testing"

	"repro/internal/datamodel"
)

// TestAllocsSteadyState is the model-level allocation guard (the race
// detector changes allocation counts and empties sync.Pool at random,
// hence the build tag). Training: two otherwise identical runs that
// differ only in epoch count must allocate the same number of objects,
// i.e. once the step's tape is warm a training step — encode lookup,
// forward, loss, backward, clip, Adam — allocates nothing. Inference: a
// warm PredictProb, pooled tape and token encoding included, allocates
// nothing either (the candidate's "X3" token takes the lowercasing
// path). A warm PredictProbs over one document allocates nothing per
// candidate and at most one object (its memo key) per distinct sequence
// it encodes.
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

	// One document: 3 part spans × 4 value spans, 7 distinct sequences.
	b := datamodel.NewBuilder("doc", "html")
	s := b.AddSentence(b.AddParagraph(b.AddText()), []string{"BC546", "BC547", "BC548", "collector", "current", "is", "100", "200", "300", "500", "mA"})
	b.Finish()
	var doc []Example
	for p := 0; p < 3; p++ {
		for v := 6; v < 10; v++ {
			doc = append(doc, pairExample(len(doc), s, [2]int{p, p + 1}, [2]int{v, v + 1}))
		}
	}
	pm := NewFonduer(2, 3, 3, doc)
	pm.Train(doc, TrainOptions{Epochs: 1})
	twice := append(slices.Clone(doc), doc...)
	probs := make([]float64, len(twice))
	var encoded int
	allocs := func(exs []Example) float64 {
		run := func() { encoded = pm.PredictProbs(exs, probs) }
		run()
		run()
		return testing.AllocsPerRun(50, run)
	}
	once, both := allocs(doc), allocs(twice)
	t.Logf("warm PredictProbs: %v allocations, %d sequences encoded", once, encoded)
	if encoded != 7 {
		t.Fatalf("PredictProbs encoded %d sequences, want 7", encoded)
	}
	if both != once || once > float64(encoded) {
		t.Errorf("warm PredictProbs: %v allocations over %d candidates, %v over %d; want equal and <= %d (one per distinct sequence)",
			once, len(doc), both, len(twice), encoded)
	}
	_ = sink
}
