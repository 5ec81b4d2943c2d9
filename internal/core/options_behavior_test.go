package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestOptionsThresholdZeroBehavior runs the (cheap) human-tuned
// variant end to end and checks a literal zero threshold is really in
// effect: every test candidate with positive predicted probability is
// classified true, so predictions can only grow relative to a high
// threshold.
func TestOptionsThresholdZeroBehavior(t *testing.T) {
	corpus := synth.Electronics(31, 8)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	base := core.Options{Variant: core.VariantHumanTuned, Seed: 3, Epochs: 2}
	high := base
	high.ThresholdOverride = core.Float64(0.999999)
	low := base
	low.ThresholdOverride = core.Float64(0)

	nHigh := len(core.Run(task, train, test, gold, high).Predicted)
	nLow := len(core.Run(task, train, test, gold, low).Predicted)
	if nLow < nHigh {
		t.Fatalf("threshold-0 predictions (%d) must not be fewer than threshold-0.999999 (%d)", nLow, nHigh)
	}
	if nLow == 0 {
		t.Fatal("threshold 0 should classify the positive-probability candidates")
	}
}

// TestOptionsBatchTrainingBehavior covers the Batch option end to end:
// the zero value must mean "batch of 1" (the pre-minibatch trajectory,
// bit-identical Result), Batch must reach the training stage (a real
// minibatch changes the trained model's predictions' trajectory), and
// a Batch>1 run must stay bit-identical at any worker count — the
// pipeline's determinism contract extended to data-parallel training.
func TestOptionsBatchTrainingBehavior(t *testing.T) {
	corpus := synth.Electronics(33, 12)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	run := func(batch, workers int) core.Result {
		r := core.Run(task, train, test, gold, core.Options{
			Seed: 5, Epochs: 2, Batch: batch, Workers: workers})
		r.TrainStats.SecsPerEpoch = 0
		r.TrainStats.TotalDuration = 0
		return r
	}

	def := run(0, 1)
	if !reflect.DeepEqual(def, run(1, 1)) {
		t.Fatal("Batch=0 (sentinel) must be bit-identical to Batch=1")
	}

	want := run(4, 1)
	for _, workers := range []int{2, 8} {
		if got := run(4, workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("Batch=4 diverges between workers=1 and workers=%d:\n got: %+v\nwant: %+v",
				workers, got, want)
		}
	}
	if def.TrainStats.FinalLoss == want.TrainStats.FinalLoss {
		t.Fatal("Batch=4 trained identically to Batch=1; option not reaching the train stage")
	}
}
