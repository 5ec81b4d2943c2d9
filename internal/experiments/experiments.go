// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5, Section 6, Appendix C) against the
// synthetic corpora. Each experiment returns a structured result and
// renders the same rows or series the paper reports; EXPERIMENTS.md
// records paper-vs-measured values. Absolute numbers differ from the
// paper (different corpora, different hardware) — the reproduced
// quantity is the shape: who wins, by roughly what factor, and where
// the crossovers fall.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/pool"
	"repro/internal/synth"
)

// Config sizes the experiment corpora and training budget.
type Config struct {
	Seed                                  int64
	ElecDocs, AdsDocs, PaleoDocs, GenDocs int
	Epochs                                int
	// Workers sizes the pool used to fan out independent pipeline
	// configurations; each pipeline runs its own stages at
	// innerWorkers. <=0 means GOMAXPROCS. Every experiment is seeded,
	// and parallel pipeline execution is bit-identical to sequential,
	// so results do not depend on this value. Experiments that measure
	// wall-clock time (Table 6, Figure 4, the appendix studies) always
	// run their timed sections one at a time.
	Workers int
}

// timingRuns is how many times each side of a wall-clock comparison
// runs (Figure 4, the appendix studies). The sides take turns, and each
// reports the median of its runs, so that a moment of CPU taken by
// another process moves neither side.
const timingRuns = 5

// interleavedMedians runs each function timingRuns times, in rounds
// that alternate direction (a b c, c b a, a b c, ...), and returns the
// median of the seconds each one reported.
func interleavedMedians(runs ...func() float64) []float64 {
	secs := make([][]float64, len(runs))
	for round := 0; round < timingRuns; round++ {
		for k := range runs {
			i := k
			if round%2 == 1 {
				i = len(runs) - 1 - k
			}
			secs[i] = append(secs[i], runs[i]())
		}
	}
	med := make([]float64, len(runs))
	for i, s := range secs {
		slices.Sort(s)
		med[i] = s[len(s)/2]
	}
	return med
}

// DefaultConfig returns the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Seed: 42, ElecDocs: 40, AdsDocs: 60, PaleoDocs: 24, GenDocs: 30, Epochs: 16}
}

// FastConfig returns a small configuration for unit tests and quick
// benchmark iterations.
func FastConfig() Config {
	return Config{Seed: 42, ElecDocs: 16, AdsDocs: 24, PaleoDocs: 8, GenDocs: 12, Epochs: 16}
}

// Domain couples a corpus with its display name.
type Domain struct {
	Name   string
	Corpus *synth.Corpus
}

// Domains generates the four evaluation corpora (Table 1).
func Domains(cfg Config) []Domain {
	return []Domain{
		{"ELEC.", synth.Electronics(cfg.Seed, cfg.ElecDocs)},
		{"ADS.", synth.Ads(cfg.Seed+1, cfg.AdsDocs)},
		{"PALEO.", synth.Paleo(cfg.Seed+2, cfg.PaleoDocs)},
		{"GEN.", synth.Genomics(cfg.Seed+3, cfg.GenDocs)},
	}
}

// innerWorkers is the pipeline-level parallelism under the experiment
// runner: the experiment-level fan-out owns the worker pool, so each
// pipeline it launches runs its stages sequentially — concurrency
// stays exactly one pool wide instead of multiplying per nesting
// level, and cfg.Workers == 1 means genuinely sequential end to end
// (the `-workers 1` contract, e.g. for timing baselines). Results are
// identical either way (bit-identical at any worker count).
const innerWorkers = 1

// options fills what an experiment's pipeline options leave zero:
// cfg's epochs and seed, and innerWorkers.
func (cfg Config) options(opts core.Options) core.Options {
	if opts.Epochs == 0 {
		opts.Epochs = cfg.Epochs
	}
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	if opts.Workers == 0 {
		opts.Workers = innerWorkers
	}
	return opts
}

// runGrid evaluates fn over an rows x cols grid with one flat fan-out
// (no nested pools) and returns the results indexed [row][col], so
// the axis layout is fixed in one place.
func runGrid[T any](rows, cols, workers int, fn func(r, c int) T) [][]T {
	out := make([][]T, rows)
	for r := range out {
		out[r] = make([]T, cols)
	}
	pool.Run(rows*cols, workers, func(k int) {
		r, c := k/cols, k%cols
		out[r][c] = fn(r, c)
	})
	return out
}

// runTask executes the standard pipeline for one task of a corpus.
func runTask(c *synth.Corpus, taskIdx int, cfg Config, opts core.Options) core.Result {
	task := c.Tasks[taskIdx]
	train, test := c.Split()
	return core.Run(task, train, test, c.GoldTuples[task.Relation], cfg.options(opts))
}

// extracted is one task's pre-extracted Candidates relation, shared
// read-only across the model variants of a comparison grid — the
// experiments-runner analogue of a store session: Phase 2 runs once
// per task, and only the variant-dependent stages re-run.
type extracted struct {
	task                  core.Task
	testDocs              []*datamodel.Document
	trainCands, testCands []*candidates.Candidate
	gold                  []core.GoldTuple
}

// extractTask extracts one task's train/test candidates with the
// pipeline's default scope and throttling (the configuration every
// variant grid uses).
func extractTask(c *synth.Corpus, taskIdx int) extracted {
	task := c.Tasks[taskIdx]
	train, test := c.Split()
	return extracted{
		task:       task,
		testDocs:   test,
		trainCands: core.ParallelExtract(task, train, candidates.DocumentScope, true, innerWorkers),
		testCands:  core.ParallelExtract(task, test, candidates.DocumentScope, true, innerWorkers),
		gold:       c.GoldTuples[task.Relation],
	}
}

// run executes the variant-dependent pipeline stages over the shared
// candidates; results are identical to a full runTask with the same
// options.
func (e extracted) run(cfg Config, opts core.Options) core.Result {
	return core.RunWithCandidates(e.task, e.trainCands, e.testCands, e.testDocs, e.gold, cfg.options(opts))
}

// meanPRF averages precision and recall (recomputing F1) — how the
// paper reports multi-relation datasets.
func meanPRF(per []core.PRF) core.PRF {
	var p, r float64
	for _, q := range per {
		p += q.Precision
		r += q.Recall
	}
	n := float64(len(per))
	return core.NewPRF(p/n, r/n)
}

// meanF1 averages per-task F1 directly (used where the paper reports
// a single F1 series, e.g. Figures 6-8).
func meanF1(per []core.PRF) float64 {
	f := 0.0
	for _, q := range per {
		f += q.F1
	}
	return f / float64(len(per))
}

// perTaskQuality runs the pipeline on every task of every listed
// corpus in one flat fan-out (no nested pools) and returns the
// quality grid indexed [corpus][task].
func perTaskQuality(corpora []*synth.Corpus, cfg Config, opts core.Options) [][]core.PRF {
	type pair struct{ ci, ti int }
	var pairs []pair
	out := make([][]core.PRF, len(corpora))
	for ci, c := range corpora {
		out[ci] = make([]core.PRF, len(c.Tasks))
		for ti := range c.Tasks {
			pairs = append(pairs, pair{ci, ti})
		}
	}
	pool.Run(len(pairs), cfg.Workers, func(k int) {
		p := pairs[k]
		out[p.ci][p.ti] = runTask(corpora[p.ci], p.ti, cfg, opts).Quality
	})
	return out
}

// table is a small fixed-width text-table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
