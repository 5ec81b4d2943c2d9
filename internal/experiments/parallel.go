package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// SpeedupResult reports the pipeline's wall-clock advantage over
// sequential execution on everything before Train — candidate
// extraction, featurization, index construction, labeling-function
// application and label-model denoising (core.TrainExamples). Training
// is excluded: it takes one Adam step per example on one goroutine, so
// it runs the same at any worker count. Candidates counts the covered
// candidates, i.e. the training examples both runs end in; Identical
// confirms the parallel run produced them bit for bit, the guarantee
// that makes parallelism safe to enable by default.
type SpeedupResult struct {
	Workers    int
	Docs       int
	Candidates int
	SeqSecs    float64
	ParSecs    float64
	SpeedUp    float64
	Identical  bool
}

// SpeedupStudy times core.TrainExamples over the ELECTRONICS train
// split at Workers=1 versus Workers=N (N = the cfg worker pool,
// GOMAXPROCS when unset). Extraction, featurization and labeling
// process documents atomically with no cross-document coordination, so
// on a multi-core machine their share of the speedup approaches
// min(N, cores); the index and the label-model fit are sequential. On
// a single core the study degenerates to ~1x.
func SpeedupStudy(cfg Config) SpeedupResult {
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs*2)
	task := elec.Tasks[0]
	train, _ := elec.Split()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	run := func(w int) (numFeatures int, exs []model.Example, secs float64) {
		start := time.Now()
		numFeatures, exs = core.TrainExamples(task, train, core.Options{Workers: w})
		return numFeatures, exs, time.Since(start).Seconds()
	}
	seqFeatures, seq, seqSecs := run(1)
	parFeatures, par, parSecs := run(workers)

	out := SpeedupResult{
		Workers: workers, Docs: len(train),
		Candidates: len(seq),
		SeqSecs:    seqSecs, ParSecs: parSecs,
		Identical: seqFeatures == parFeatures && identicalExamples(seq, par),
	}
	if parSecs > 0 {
		out.SpeedUp = seqSecs / parSecs
	}
	return out
}

// identicalExamples compares two runs' training examples bit for bit:
// candidate identity and order, every feature row, and every marginal
// — the same contract the pipeline equivalence tests enforce, so a
// future ordering bug cannot hide behind matching counts.
func identicalExamples(a, b []model.Example) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cand.ID != b[i].Cand.ID || a[i].Cand.Key() != b[i].Cand.Key() ||
			!reflect.DeepEqual(a[i].SparseFeats, b[i].SparseFeats) ||
			math.Float64bits(a[i].Marginal) != math.Float64bits(b[i].Marginal) {
			return false
		}
	}
	return true
}

// String renders the speedup study.
func (r SpeedupResult) String() string {
	return fmt.Sprintf("Parallel pipeline: extract+featurize+index+label+denoise, ELEC (%d docs, %d training examples)\n"+
		"sequential: %.3fs   %d workers: %.3fs   speedup: %.2fx   identical: %v\n"+
		"(speedup tracks min(workers, cores); this host has %d logical CPUs)\n",
		r.Docs, r.Candidates, r.SeqSecs, r.Workers, r.ParSecs, r.SpeedUp, r.Identical, runtime.NumCPU())
}
