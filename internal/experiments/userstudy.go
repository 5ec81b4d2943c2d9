package experiments

import (
	"fmt"
	"math"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/pool"
	"repro/internal/synth"
)

// Figure9Point is one checkpoint of the user-study simulation.
type Figure9Point struct {
	Minute   int
	ManualF1 float64
	LFF1     float64
	// ManualLabels / LFLabels count how many training candidates each
	// approach has labeled by this checkpoint (the paper observes 285
	// manual labels vs 19,075 LF-labeled candidates at 30 minutes).
	ManualLabels int
	LFLabels     int
}

// Figure9Result reproduces Figure 9: quality over time for manual
// annotation vs labeling functions (left), plus the LF modality
// distribution (right).
type Figure9Result struct {
	Points []Figure9Point
	// ModalityRatio is the fraction of pool LFs per modality.
	ModalityRatio map[features.Modality]float64
}

// Figure9 simulates the user study (Section 6) on the paper's task —
// extracting maximum collector-emitter voltages from ELECTRONICS.
// The manual annotator labels candidates at the paper's observed
// throughput (285 candidates in 30 minutes, ground-truth labels, in
// document order); the LF user finishes one labeling function from the
// task pool per development iteration. Both conditions train the same
// discriminative model, reproducing the mechanism the paper credits:
// LFs win because they label far more candidates and generalize.
func Figure9(cfg Config) Figure9Result {
	const (
		totalMinutes = 30
		manualRate   = 285.0 / 30.0 // candidates per minute
	)
	// The study corpus must hold far more candidates than a human can
	// label in 30 minutes (the paper's annotators covered 285 of
	// ~19,000), so Figure 9 uses a larger corpus than the other
	// experiments.
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs*6)
	task := elec.Tasks[1] // HasCEVoltage, the user-study task
	train, test := elec.Split()
	gold := elec.GoldTuples[task.Relation]

	ext := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope, Throttlers: task.Throttlers}
	trainCands := ext.ExtractAll(train)
	ext.Reset()
	testCands := ext.ExtractAll(test)

	// Annotators label candidates in document order (as in the study's
	// interface), so early labels concentrate on few documents and miss
	// the corpus' stylistic variety.

	runWith := func(marginals []float64) float64 {
		res := core.RunWithCandidates(task, trainCands, testCands, test, gold, cfg.options(core.Options{Marginals: marginals}))
		return res.Quality.F1
	}

	lfInterval := float64(totalMinutes) / float64(len(task.LFs))
	// The checkpoints are independent simulations (each trains from
	// scratch on its own label state), so they fan out over the worker
	// pool; points land in minute order.
	var minutes []int
	for minute := 5; minute <= totalMinutes; minute += 5 {
		minutes = append(minutes, minute)
	}
	out := Figure9Result{Points: make([]Figure9Point, len(minutes))}
	pool.Run(len(minutes), cfg.Workers, func(mi int) {
		minute := minutes[mi]
		// Manual condition: gold labels for the first k candidates,
		// everything else uninformative.
		k := int(manualRate * float64(minute))
		if k > len(trainCands) {
			k = len(trainCands)
		}
		manualMarg := make([]float64, len(trainCands))
		for i := range manualMarg {
			manualMarg[i] = 0.5
		}
		for _, c := range trainCands[:k] {
			if task.Gold(c) {
				manualMarg[c.ID] = 1
			} else {
				manualMarg[c.ID] = 0
			}
		}
		manualF1 := runWith(manualMarg)

		// LF condition: the first n pool LFs, denoised.
		n := int(math.Ceil(float64(minute) / lfInterval))
		if n > len(task.LFs) {
			n = len(task.LFs)
		}
		lm := labeling.ParallelApply(task.LFs[:n], trainCands, innerWorkers)
		labeled := 0
		for i := range lm.Votes {
			if lm.Covered(i) {
				labeled++
			}
		}
		gen := labeling.Fit(lm, labeling.FitOptions{})
		lfF1 := runWith(gen.Marginals(lm))

		out.Points[mi] = Figure9Point{
			Minute: minute, ManualF1: manualF1, LFF1: lfF1,
			ManualLabels: k, LFLabels: labeled,
		}
	})

	out.ModalityRatio = map[features.Modality]float64{}
	for _, lf := range task.LFs {
		out.ModalityRatio[lf.Modality] += 1 / float64(len(task.LFs))
	}
	return out
}

// String renders both panels of Figure 9.
func (r Figure9Result) String() string {
	t := &table{header: []string{"Minute", "Manual F1", "LF F1", "#Manual labels", "#LF-labeled"}}
	for _, p := range r.Points {
		t.add(fmt.Sprint(p.Minute), f2(p.ManualF1), f2(p.LFF1),
			fmt.Sprint(p.ManualLabels), fmt.Sprint(p.LFLabels))
	}
	s := "Figure 9 (left): F1 over time, manual annotation vs labeling functions\n" + t.String()
	t2 := &table{header: []string{"Modality", "Ratio"}}
	for _, m := range []features.Modality{features.Textual, features.Structural, features.Tabular, features.Visual} {
		t2.add(m.String(), f2(r.ModalityRatio[m]))
	}
	return s + "Figure 9 (right): LF modality distribution\n" + t2.String()
}
