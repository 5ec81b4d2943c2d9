package core_test

import (
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/synth"
)

func TestEvaluateTuples(t *testing.T) {
	gold := []core.GoldTuple{
		{Doc: "d1", Values: []string{"a", "1"}},
		{Doc: "d1", Values: []string{"b", "2"}},
		{Doc: "d2", Values: []string{"c", "3"}},
	}
	pred := []core.GoldTuple{
		{Doc: "d1", Values: []string{"a", "1"}},
		{Doc: "d1", Values: []string{"x", "9"}},
	}
	q := core.EvaluateTuples(pred, gold)
	if q.Precision != 0.5 {
		t.Fatalf("precision = %v", q.Precision)
	}
	if q.Recall < 0.33 || q.Recall > 0.34 {
		t.Fatalf("recall = %v", q.Recall)
	}
	if q.F1 <= 0 {
		t.Fatalf("f1 = %v", q.F1)
	}
	if got := core.EvaluateTuples(nil, gold); got.F1 != 0 {
		t.Fatalf("empty predictions = %+v", got)
	}
	if got := core.NewPRF(0, 0); got.F1 != 0 {
		t.Fatalf("core.NewPRF(0,0) = %+v", got)
	}
	if core.NewPRF(1, 1).F1 != 1 {
		t.Fatal("perfect F1")
	}
}

func TestFilterGold(t *testing.T) {
	gold := []core.GoldTuple{{Doc: "a"}, {Doc: "b"}, {Doc: "a"}}
	got := core.FilterGold(gold, map[string]bool{"a": true})
	if len(got) != 2 {
		t.Fatalf("filtered = %d", len(got))
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[core.Variant]string{
		core.VariantFonduer: "Fonduer", core.VariantTextLSTM: "Bi-LSTM w/ Attn.",
		core.VariantHumanTuned: "Human-tuned", core.VariantSRV: "SRV",
		core.VariantDocRNN: "Document-level RNN", core.VariantMaxPool: "Bi-LSTM w/ MaxPool",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", int(v), v.String())
		}
	}
}

// TestPipelineEndToEndElectronics runs the full pipeline on a small
// ELECTRONICS corpus and checks that the trained system extracts a
// high-quality KB — the repository's core integration test.
func TestPipelineEndToEndElectronics(t *testing.T) {
	corpus := synth.Electronics(11, 36)
	task := corpus.Tasks[0] // HasCollectorCurrent
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	res := core.Run(task, train, test, gold, core.Options{Seed: 1, Epochs: 6})
	if res.TrainCandidates == 0 || res.TestCandidates == 0 {
		t.Fatalf("no candidates: %+v", res)
	}
	if res.NumFeatures == 0 {
		t.Fatal("no features")
	}
	if res.LFMetrics.Coverage < 0.5 {
		t.Fatalf("LF coverage = %v", res.LFMetrics.Coverage)
	}
	if res.Quality.F1 < 0.6 {
		t.Fatalf("end-to-end F1 = %v (%+v)", res.Quality.F1, res.Quality)
	}
	if res.CacheStats.Hits == 0 {
		t.Fatal("feature cache unused")
	}
	if res.TrainStats.SecsPerEpoch <= 0 {
		t.Fatal("no train stats")
	}
}

func TestPipelineGenomics(t *testing.T) {
	corpus := synth.Genomics(12, 24)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	res := core.Run(task, train, test, corpus.GoldTuples[task.Relation], core.Options{Seed: 2, Epochs: 6})
	if res.Quality.F1 < 0.6 {
		t.Fatalf("genomics F1 = %v (%+v)", res.Quality.F1, res.Quality)
	}
}

func TestPipelineVariantsRun(t *testing.T) {
	corpus := synth.Electronics(13, 12)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]
	for _, v := range []core.Variant{core.VariantHumanTuned, core.VariantSRV, core.VariantTextLSTM, core.VariantMaxPool} {
		res := core.Run(task, train, test, gold, core.Options{Variant: v, Seed: 3, Epochs: 3})
		if res.Quality.Precision < 0 || res.Quality.Precision > 1 {
			t.Fatalf("%v: bad precision %v", v, res.Quality.Precision)
		}
	}
}

func TestPipelineAblationKnobs(t *testing.T) {
	corpus := synth.Electronics(14, 16)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	// Feature-modality ablation runs.
	res := core.Run(task, train, test, gold, core.Options{
		Seed: 4, Epochs: 3,
		DisabledModalities: []features.Modality{features.Tabular, features.Visual},
	})
	if res.NumFeatures == 0 {
		t.Fatal("ablated run has no features")
	}
	// Supervision subset (textual-only LFs).
	resTxt := core.Run(task, train, test, gold, core.Options{
		Seed: 4, Epochs: 3,
		LFs: labeling.TextualOnly(task.LFs),
	})
	if resTxt.LFMetrics.Coverage >= res.LFMetrics.Coverage {
		t.Fatalf("textual-only coverage (%v) should drop below full (%v)",
			resTxt.LFMetrics.Coverage, res.LFMetrics.Coverage)
	}
	// Sentence scope yields near-zero recall in electronics.
	resSent := core.Run(task, train, test, gold, core.Options{Seed: 4, Epochs: 3, Scope: candidates.SentenceScope})
	if resSent.Quality.Recall > 0.2 {
		t.Fatalf("sentence-scope recall = %v", resSent.Quality.Recall)
	}
}

func TestDocNames(t *testing.T) {
	corpus := synth.Electronics(15, 4)
	names := core.DocNames(corpus.Docs)
	if len(names) != 4 || !names["elec0000"] {
		t.Fatalf("names = %v", names)
	}
}
