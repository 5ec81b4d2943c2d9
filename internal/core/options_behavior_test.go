package core_test

import (
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
