// Package labeling implements Fonduer's supervision layer: data
// programming (Section 3.2, Appendix A). Users write labeling
// functions (LFs) — lightweight functions that label candidates +1
// ("True"), -1 ("False"), or 0 (abstain) using any modality of the
// data model. The package applies LFs to candidates to form a label
// matrix, computes the LF development metrics the paper exposes
// (coverage, overlap, conflict), and denoises the labels with a
// generative model that estimates each LF's accuracy from agreements
// and conflicts, producing per-candidate marginal probabilities for
// noise-aware discriminative training. This is the role Snorkel [32]
// plays in the paper's implementation.
package labeling

import (
	"fmt"
	"math"

	"repro/internal/candidates"
	"repro/internal/features"
)

// LF is a labeling function. Fn returns +1, -1, or 0 (abstain).
//
// The pipeline applies LFs concurrently across candidates by default
// (core.Options.Workers), so Fn must be safe for concurrent calls —
// in practice, a pure function of its candidate, which every LF in
// this repository is. An Fn that mutates captured state requires
// Workers = 1 (fully sequential application).
type LF struct {
	Name string
	// Modality records which data modality the LF's pattern uses —
	// textual or metadata (structural/tabular/visual) — driving the
	// Figure 8 supervision ablation and the Figure 9 distribution.
	Modality features.Modality
	Fn       func(*candidates.Candidate) int
}

// Matrix is the label matrix Λ ∈ {-1,0,+1}^{k×l}: the Labels
// relation's vote rows, one per candidate. Votes[i][j] is LF j's
// clamped vote on candidate i, 0 meaning abstain. The rows are read,
// never copied or written: a matrix shares them with whoever holds the
// relation (Appendix C.2's row-major form for row scans).
type Matrix struct {
	Votes  [][]int8
	NumLFs int
}

// Covered reports whether any LF labeled row i.
func (m *Matrix) Covered(i int) bool {
	for _, v := range m.Votes[i] {
		if v != 0 {
			return true
		}
	}
	return false
}

// RowLabels returns the LFs that voted on row i, in ascending order.
//
// Deprecated: read m.Votes[i], or Covered for len(RowLabels(i)) > 0.
// It is kept only because benchmark/ still calls it; it goes when
// benchmark/ drops that call (ROADMAP item 3(d)).
func (m *Matrix) RowLabels(i int) []int {
	var lfs []int
	for j, v := range m.Votes[i] {
		if v != 0 {
			lfs = append(lfs, j)
		}
	}
	return lfs
}

// Compact returns m.
//
// Deprecated: a matrix is its vote rows and has no other
// representation to switch to. It is kept only because benchmark/
// still calls it; it goes with RowLabels (ROADMAP item 3(d)).
func (m *Matrix) Compact() *Matrix { return m }

// Metrics are the labeling-function development metrics Fonduer
// reports to users for error analysis (Section 3.3): coverage (the
// fraction of candidates receiving a non-zero label), overlap (labeled
// by two or more LFs), and conflict (receiving disagreeing labels).
type Metrics struct {
	Coverage float64
	Overlap  float64
	Conflict float64
	// PerLF holds each LF's own coverage, overlap and conflict rates.
	PerLF []LFMetrics
}

// LFMetrics are per-LF development metrics.
type LFMetrics struct {
	Coverage float64 // fraction of candidates this LF labels
	Overlap  float64 // labeled by this LF and at least one other
	Conflict float64 // labeled by this LF and contradicted by another
}

// ComputeMetrics summarizes a label matrix.
func ComputeMetrics(m *Matrix) Metrics {
	var out Metrics
	out.PerLF = make([]LFMetrics, m.NumLFs)
	if len(m.Votes) == 0 {
		return out
	}
	covered, overlapped, conflicted := 0, 0, 0
	lfCov := make([]int, m.NumLFs)
	lfOver := make([]int, m.NumLFs)
	lfConf := make([]int, m.NumLFs)
	for _, row := range m.Votes {
		pos, neg := 0, 0
		for _, v := range row {
			if v > 0 {
				pos++
			} else if v < 0 {
				neg++
			}
		}
		voted := pos + neg
		if voted == 0 {
			continue
		}
		covered++
		if voted >= 2 {
			overlapped++
		}
		if pos > 0 && neg > 0 {
			conflicted++
		}
		for j, v := range row {
			if v == 0 {
				continue
			}
			lfCov[j]++
			if voted >= 2 {
				lfOver[j]++
			}
			// This LF conflicts if any other LF disagrees with it.
			if (v > 0 && neg > 0) || (v < 0 && pos > 0) {
				lfConf[j]++
			}
		}
	}
	n := float64(len(m.Votes))
	out.Coverage = float64(covered) / n
	out.Overlap = float64(overlapped) / n
	out.Conflict = float64(conflicted) / n
	for j := 0; j < m.NumLFs; j++ {
		out.PerLF[j] = LFMetrics{
			Coverage: float64(lfCov[j]) / n,
			Overlap:  float64(lfOver[j]) / n,
			Conflict: float64(lfConf[j]) / n,
		}
	}
	return out
}

// Model is the fitted generative label model: per-LF accuracies and a
// class prior, estimated without ground truth by reasoning about the
// agreements and conflicts among LFs (Appendix A).
type Model struct {
	// Acc[j] is the probability LF j is correct given it does not
	// abstain.
	Acc []float64
	// Prior is P(y = +1).
	Prior float64
	// Iterations actually run by EM.
	Iterations int
}

// FitOptions configure Fit.
type FitOptions struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol stops EM when marginals move less than this (default 1e-6).
	Tol float64
	// InitAcc is the initial LF accuracy (default 0.7).
	InitAcc float64
	// LearnPrior lets EM estimate the class prior from covered rows.
	// Off by default: a learned shared prior is self-reinforcing in
	// skewed domains (a high prior makes accurate negative LFs look
	// inaccurate, which raises the prior further), so the symmetric
	// prior P(y=+1)=0.5 is the robust default.
	LearnPrior bool
}

func (o *FitOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.InitAcc <= 0 {
		o.InitAcc = 0.7
	}
}

// votePatterns groups the rows of a label matrix by vote pattern: the
// (LF, sign) sequence a row holds. A dozen labeling functions leave a
// few dozen patterns among thousands of rows, and a row's posterior
// depends on its pattern alone, so the E-step runs once per pattern
// instead of once per row.
type votePatterns struct {
	of   []int32  // of[i] is row i's pattern
	rows [][]vote // each pattern's votes in ascending LF order
}

// vote is one non-abstain cell of a pattern.
type vote struct {
	lf  int32
	pos bool // the LF voted +1
}

// groupRows keys each row by its own bytes and stores each distinct
// pattern once, its votes cut from one backing array: a first pass
// numbers the patterns in order of first appearance and sizes the
// array, a second fills it from each pattern's first row.
func groupRows(m *Matrix) votePatterns {
	g := votePatterns{of: make([]int32, len(m.Votes))}
	ids := map[string]int32{}
	key := make([]byte, 0, m.NumLFs)
	nnz := 0 // votes over the patterns' first rows
	for i, row := range m.Votes {
		key = key[:0]
		for _, v := range row {
			key = append(key, byte(v))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
			for _, v := range row {
				if v != 0 {
					nnz++
				}
			}
		}
		g.of[i] = id
	}
	votes := make([]vote, 0, nnz)
	g.rows = make([][]vote, len(ids))
	next := int32(0) // the first pattern not yet filled
	for i, p := range g.of {
		if p != next {
			continue
		}
		first := len(votes)
		for j, v := range m.Votes[i] {
			if v != 0 {
				votes = append(votes, vote{lf: int32(j), pos: v > 0})
			}
		}
		g.rows[p] = votes[first:len(votes):len(votes)]
		if next++; int(next) == len(g.rows) {
			break
		}
	}
	return g
}

// logOdds are the logarithms a posterior sums, taken once per model
// state instead of once per vote.
type logOdds struct {
	prior, notPrior float64   // log P(y=+1), log P(y=-1)
	acc, notAcc     []float64 // per LF: log acc, log (1 - acc)
}

// set takes the logarithms of mod's current state.
func (lo *logOdds) set(mod *Model) {
	lo.prior = math.Log(mod.Prior)
	lo.notPrior = math.Log(1 - mod.Prior)
	lo.acc, lo.notAcc = lo.acc[:0], lo.notAcc[:0]
	for _, a := range mod.Acc {
		lo.acc = append(lo.acc, math.Log(a))
		lo.notAcc = append(lo.notAcc, math.Log(1-a))
	}
}

// posterior computes P(y=+1 | votes) under the independent-LF model.
func (lo *logOdds) posterior(votes []vote) float64 {
	logPos, logNeg := lo.prior, lo.notPrior
	for _, e := range votes {
		if e.pos {
			logPos += lo.acc[e.lf]
			logNeg += lo.notAcc[e.lf]
		} else {
			logPos += lo.notAcc[e.lf]
			logNeg += lo.acc[e.lf]
		}
	}
	// Stable softmax over two log scores.
	m := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - m)
	pn := math.Exp(logNeg - m)
	return pp / (pp + pn)
}

// posteriors is the E-step: one posterior per vote pattern, under mod's
// current state, into mu.
func (mod *Model) posteriors(pats votePatterns, lo *logOdds, mu []float64) {
	lo.set(mod)
	for p, row := range pats.rows {
		mu[p] = lo.posterior(row)
	}
}

// Fit estimates the generative model from a label matrix by
// expectation-maximization over the latent true labels, under the
// standard data-programming assumption that LFs are conditionally
// independent given the true label:
//
//	E-step: μ_i = P(y_i=+1 | Λ_i, acc, prior)
//	M-step: acc_j = expected fraction of LF j's labels that agree
//	        with the latent label; prior = mean μ.
//
// The E-step runs per vote pattern; every sum over rows — the
// convergence test and the M-step — still adds row by row in row order,
// so the fitted model is bit for bit the one a per-row E-step yields.
func Fit(m *Matrix, opts FitOptions) *Model {
	opts.defaults()
	mod := &Model{Acc: make([]float64, m.NumLFs), Prior: 0.5}
	for j := range mod.Acc {
		mod.Acc[j] = opts.InitAcc
	}
	if len(m.Votes) == 0 || m.NumLFs == 0 {
		return mod
	}
	pats := groupRows(m)
	// total[j] counts LF j's labels: the same in every iteration.
	total := make([]float64, m.NumLFs)
	for _, p := range pats.of {
		for _, e := range pats.rows[p] {
			total[e.lf]++
		}
	}
	var lo logOdds
	mu := make([]float64, len(pats.rows)) // per pattern
	prev := make([]float64, len(pats.rows))
	moved := make([]float64, len(pats.rows))
	agree := make([]float64, m.NumLFs)
	for iter := 0; iter < opts.MaxIter; iter++ {
		mod.Iterations = iter + 1
		// E-step.
		mod.posteriors(pats, &lo, mu)
		// Convergence check.
		if iter > 0 {
			for p := range mu {
				moved[p] = math.Abs(mu[p] - prev[p])
			}
			delta := 0.0
			for _, p := range pats.of {
				delta += moved[p]
			}
			if delta/float64(len(pats.of)) < opts.Tol {
				break
			}
		}
		copy(prev, mu)
		// M-step.
		clear(agree)
		for _, p := range pats.of {
			for _, e := range pats.rows[p] {
				if e.pos {
					agree[e.lf] += mu[p]
				} else {
					agree[e.lf] += 1 - mu[p]
				}
			}
		}
		for j := 0; j < m.NumLFs; j++ {
			if total[j] > 0 {
				// Data-programming theory assumes labeling functions
				// are better than random (Appendix A.2's γ > 0); the
				// lower clamp also breaks the label-inversion symmetry
				// EM would otherwise be free to converge to.
				mod.Acc[j] = clamp(agree[j]/total[j], 0.55, 0.95)
			}
		}
		if opts.LearnPrior {
			// Estimate the class prior from covered rows only, so
			// uncovered rows (which receive the prior) cannot
			// reinforce it.
			covSum, covN := 0.0, 0
			for _, p := range pats.of {
				if len(pats.rows[p]) > 0 {
					covSum += mu[p]
					covN++
				}
			}
			if covN > 0 {
				mod.Prior = clamp(covSum/float64(covN), 0.05, 0.95)
			}
		}
	}
	return mod
}

// Marginals returns P(y=+1 | Λ_i) for every candidate row — the
// probabilistic training labels consumed by the noise-aware
// discriminative model. Rows with no labels get the prior.
func (mod *Model) Marginals(m *Matrix) []float64 {
	pats := groupRows(m)
	mu := make([]float64, len(pats.rows))
	mod.posteriors(pats, new(logOdds), mu)
	out := make([]float64, len(m.Votes))
	for i, p := range pats.of {
		out[i] = mu[p]
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FilterByModality partitions LFs into textual and metadata pools —
// the Figure 8 supervision-ablation split (metadata = structural,
// tabular and visual).
func FilterByModality(lfs []LF, keep func(features.Modality) bool) []LF {
	var out []LF
	for _, lf := range lfs {
		if keep(lf.Modality) {
			out = append(out, lf)
		}
	}
	return out
}

// TextualOnly keeps textual LFs.
func TextualOnly(lfs []LF) []LF {
	return FilterByModality(lfs, func(m features.Modality) bool { return m == features.Textual })
}

// MetadataOnly keeps structural/tabular/visual LFs.
func MetadataOnly(lfs []LF) []LF {
	return FilterByModality(lfs, func(m features.Modality) bool { return m != features.Textual })
}

// String implements fmt.Stringer for diagnostics.
func (mod *Model) String() string {
	return fmt.Sprintf("Model(prior=%.3f, %d LFs, %d EM iters)", mod.Prior, len(mod.Acc), mod.Iterations)
}
