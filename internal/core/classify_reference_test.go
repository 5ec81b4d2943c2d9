package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// TestScoreByDocMatchesPredictProbReference pins the one scoring path
// (classifyStage, delta classification, AdoptModel and POST /classify
// all go through scoreByDoc) to its reference: per-candidate
// PredictProb, bit for bit, for every model variant and at any worker
// count. HasCollectorCurrent's candidates share most of their mention
// contexts and HasEBVoltage's the fewest, so both memo paths — hit and
// miss — carry weight. A second order splits every document into two
// non-adjacent runs, so a memo can be started over mid-document.
func TestScoreByDocMatchesPredictProbReference(t *testing.T) {
	corpus := synth.Electronics(27, 8)
	for _, rel := range []string{"HasCollectorCurrent", "HasEBVoltage"} {
		var task core.Task
		for _, tk := range corpus.Tasks {
			if tk.Relation == rel {
				task = tk
			}
		}
		if task.Relation == "" {
			t.Fatalf("corpus has no %s task", rel)
		}
		numFeatures, exs := core.TrainExamples(task, corpus.Docs, core.Options{Workers: 1})
		if len(exs) < 20 {
			t.Fatalf("%s: %d examples, want at least 20", rel, len(exs))
		}
		corpusOrder, split := make([]int, len(exs)), make([]int, 0, len(exs))
		for i := range exs {
			corpusOrder[i] = i
		}
		for start := 0; start < 2; start++ {
			for i := start; i < len(exs); i += 2 {
				split = append(split, i)
			}
		}
		train := exs[:20]
		arity := len(task.Args)
		for name, m := range map[string]*model.Model{
			"fonduer": model.NewFonduer(arity, numFeatures, 3, train),
			"text":    model.NewTextBiLSTM(arity, 3, train),
			"maxpool": model.NewMaxPoolText(arity, 3, train),
			"docrnn":  model.NewDocRNN(3, train, 48),
			"sparse":  model.NewHumanTuned(numFeatures, 3),
		} {
			m.Train(train, model.TrainOptions{Epochs: 1})
			want := make([]float64, len(exs))
			for i, ex := range exs {
				want[i] = m.PredictProb(ex)
			}
			for orderName, order := range map[string][]int{"corpus": corpusOrder, "split": split} {
				ordered := make([]model.Example, len(order))
				for k, i := range order {
					ordered[k] = exs[i]
				}
				for _, workers := range []int{1, 2, 8} {
					got := core.ScoreByDoc(m, ordered, workers)
					for k, i := range order {
						if math.Float64bits(got[k]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s/%s order/workers=%d: example %d: scoreByDoc %v, PredictProb %v",
								rel, name, orderName, workers, i, got[k], want[i])
						}
					}
				}
			}
		}
	}
}
