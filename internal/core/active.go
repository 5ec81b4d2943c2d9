package core

import (
	"math"
	"sort"

	"repro/internal/candidates"
)

// This file implements the active-learning extension the paper's
// future-work section sketches (Appendix D): "feedback techniques like
// active learning could empower users to more quickly recognize
// classes of candidates that need further disambiguation with LFs."
// Uncertainty sampling over the model's (or label model's) marginals
// surfaces exactly those candidates.

// UncertainCandidate pairs a candidate with its marginal probability.
type UncertainCandidate struct {
	Cand     *candidates.Candidate
	Marginal float64
}

// Uncertainty returns |p - 0.5| mapped to [0, 1]: zero for a fully
// uncertain candidate, one for a fully confident one.
func (u UncertainCandidate) Uncertainty() float64 {
	return 1 - 2*math.Abs(u.Marginal-0.5)
}

// MostUncertain ranks candidates by how close their marginal is to the
// decision boundary and returns the top k — the ones whose
// disambiguation (a new labeling function, or a manual label) buys the
// most. Ties break deterministically by candidate key.
func MostUncertain(cands []*candidates.Candidate, marginals []float64, k int) []UncertainCandidate {
	out := make([]UncertainCandidate, 0, len(cands))
	for _, c := range cands {
		if c.ID < 0 || c.ID >= len(marginals) {
			continue
		}
		out = append(out, UncertainCandidate{Cand: c, Marginal: marginals[c.ID]})
	}
	sort.Slice(out, func(i, j int) bool {
		di := math.Abs(out[i].Marginal - 0.5)
		dj := math.Abs(out[j].Marginal - 0.5)
		if di != dj {
			return di < dj
		}
		return out[i].Cand.Key() < out[j].Cand.Key()
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
