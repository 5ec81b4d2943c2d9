package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// TrainSpeedResult reports data-parallel minibatch training's
// wall-clock advantage over its Workers=1 execution — the companion to
// SpeedupResult now that training is no longer the one inherently
// serial stage. Identical confirms the parallel run produced a
// bit-identical model (every output marginal equal to the last bit),
// the determinism contract that makes the parallelism safe to enable.
type TrainSpeedResult struct {
	Workers    int
	Batch      int
	Examples   int
	Epochs     int
	SeqSecs    float64
	ParSecs    float64
	SpeedUp    float64
	Identical  bool
	ParamCount int
}

// trainSpeedBatch is the minibatch size the study (and the repo-root
// train benchmarks) use: large enough to keep 8 workers busy per Adam
// step, small enough that the trajectory stays close to per-example
// SGD on the small synthetic corpora.
const trainSpeedBatch = 16

// TrainSpeedStudy builds the ELECTRONICS training set once
// (core.TrainExamples), then times model.Train on the resulting examples
// at Workers=1 versus Workers=N (N = the cfg worker pool, GOMAXPROCS
// when unset) with the same minibatch size. Per-example gradients
// within a batch fan out over the worker pool and are reduced in
// fixed example-index order, so both runs train the identical model;
// the speedup tracks min(workers, cores, batch).
func TrainSpeedStudy(cfg Config) TrainSpeedResult {
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs*2)
	task := elec.Tasks[0]
	train, _ := elec.Split()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The staged relations are built once and shared by both timed
	// runs: the study isolates training cost exactly as Table 6 does.
	numFeatures, exs := core.TrainExamples(task, train, core.Options{Workers: workers})

	run := func(w int) (*model.Model, float64) {
		m := model.NewFonduer(len(task.Args), numFeatures, cfg.Seed, exs)
		start := time.Now()
		m.Train(exs, model.TrainOptions{
			Epochs: cfg.Epochs, Batch: trainSpeedBatch, Workers: w,
		})
		return m, time.Since(start).Seconds()
	}
	seqModel, seqSecs := run(1)
	parModel, parSecs := run(workers)

	identical := true
	for _, ex := range exs {
		if seqModel.PredictProb(ex) != parModel.PredictProb(ex) {
			identical = false
			break
		}
	}
	out := TrainSpeedResult{
		Workers: workers, Batch: trainSpeedBatch,
		Examples: len(exs), Epochs: cfg.Epochs,
		SeqSecs: seqSecs, ParSecs: parSecs,
		Identical: identical, ParamCount: seqModel.ParamCount(),
	}
	if parSecs > 0 {
		out.SpeedUp = seqSecs / parSecs
	}
	return out
}

// String renders the training speedup study.
func (r TrainSpeedResult) String() string {
	return fmt.Sprintf("Data-parallel training: Fonduer model, ELEC (%d examples, %d params, batch %d, %d epochs)\n"+
		"sequential: %.3fs   %d workers: %.3fs   speedup: %.2fx   identical: %v\n"+
		"(speedup tracks min(workers, cores, batch); this host has %d logical CPUs)\n",
		r.Examples, r.ParamCount, r.Batch, r.Epochs,
		r.SeqSecs, r.Workers, r.ParSecs, r.SpeedUp, r.Identical, runtime.NumCPU())
}
