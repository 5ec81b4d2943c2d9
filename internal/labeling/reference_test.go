package labeling

import (
	"math"
	"math/rand"
	"testing"
)

// referenceFit, referencePosterior and referenceMarginals are the
// label model as it was before the E-step ran per vote pattern: one
// posterior per row, two logarithms per vote. They are the oracle Fit
// and Marginals must match bit for bit. They use Fit's constants.
func referenceFit(m *Matrix) *Model {
	mod := &Model{Acc: make([]float64, m.NumLFs), Prior: prior}
	for j := range mod.Acc {
		mod.Acc[j] = initAcc
	}
	if len(m.Votes) == 0 || m.NumLFs == 0 {
		return mod
	}
	mu := make([]float64, len(m.Votes))
	prev := make([]float64, len(m.Votes))
	for iter := 0; iter < maxIter; iter++ {
		mod.Iterations = iter + 1
		for i := range mu {
			mu[i] = referencePosterior(mod, m.Votes[i])
		}
		if iter > 0 {
			delta := 0.0
			for i := range mu {
				delta += math.Abs(mu[i] - prev[i])
			}
			if delta/float64(len(mu)) < tol {
				break
			}
		}
		copy(prev, mu)
		agree := make([]float64, m.NumLFs)
		total := make([]float64, m.NumLFs)
		for i, row := range m.Votes {
			for j, v := range row {
				if v == 0 {
					continue
				}
				total[j]++
				if v > 0 {
					agree[j] += mu[i]
				} else {
					agree[j] += 1 - mu[i]
				}
			}
		}
		for j := 0; j < m.NumLFs; j++ {
			if total[j] > 0 {
				mod.Acc[j] = clamp(agree[j]/total[j], 0.55, 0.95)
			}
		}
	}
	return mod
}

func referencePosterior(mod *Model, row []int8) float64 {
	logPos := math.Log(mod.Prior)
	logNeg := math.Log(1 - mod.Prior)
	for j, v := range row {
		if v == 0 {
			continue
		}
		a := mod.Acc[j]
		if v > 0 {
			logPos += math.Log(a)
			logNeg += math.Log(1 - a)
		} else {
			logPos += math.Log(1 - a)
			logNeg += math.Log(a)
		}
	}
	m := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - m)
	pn := math.Exp(logNeg - m)
	return pp / (pp + pn)
}

// posterior is one pattern's posterior through the production kernel.
func (mod *Model) posterior(votes []vote) float64 {
	var lo logOdds
	lo.set(mod)
	return lo.posterior(votes)
}

func referenceMarginals(mod *Model, m *Matrix) []float64 {
	out := make([]float64, len(m.Votes))
	for i := range out {
		out[i] = referencePosterior(mod, m.Votes[i])
	}
	return out
}

// randomVotes draws a vote matrix in which each LF labels a row with
// probability density and agrees with the row's hidden label with its
// own accuracy, so rows conflict, repeat and come up empty.
func randomVotes(rng *rand.Rand, nRows, nLFs int, density float64) [][]int8 {
	acc := make([]float64, nLFs)
	for j := range acc {
		acc[j] = 0.3 + 0.65*rng.Float64()
	}
	votes := make([][]int8, nRows)
	for i := range votes {
		votes[i] = make([]int8, nLFs)
		y := int8(1)
		if rng.Float64() < 0.7 {
			y = -1
		}
		for j := range votes[i] {
			if rng.Float64() >= density {
				continue
			}
			votes[i][j] = y
			if rng.Float64() >= acc[j] {
				votes[i][j] = -y
			}
		}
	}
	return votes
}

// TestFitMatchesReference is the bit-equality oracle of the
// pattern-memoised EM: over seeded random matrices, Fit yields the
// reference's Acc, Prior and Iterations and Marginals the reference's
// marginals, compared as float64 bit patterns. The cases reach both of
// EM's exits, the tolerance break and the maxIter cap, and the test
// fails if either goes unreached.
func TestFitMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		rows, lfs  int
		density    float64
		emptyEvery int // every k-th row abstains everywhere
	}{
		{name: "typical", rows: 900, lfs: 10, density: 0.3},
		{name: "dense-conflicting", rows: 400, lfs: 12, density: 0.9},
		{name: "sparse-mostly-empty", rows: 600, lfs: 8, density: 0.03, emptyEvery: 3},
		{name: "all-abstain", rows: 50, lfs: 6, density: 0},
		{name: "one-row", rows: 1, lfs: 4, density: 0.8},
		{name: "no-rows", rows: 0, lfs: 5, density: 0.5},
		{name: "no-lfs", rows: 40, lfs: 0, density: 0.5},
		{name: "wide-300-lfs", rows: 300, lfs: 300, density: 0.05},
	}
	capped, converged := 0, 0
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(tc.rows)))
			votes := randomVotes(rng, tc.rows, tc.lfs, tc.density)
			for i := range votes {
				if tc.emptyEvery > 0 && i%tc.emptyEvery == 0 {
					clear(votes[i])
				}
			}
			m := &Matrix{Votes: votes, NumLFs: tc.lfs}
			got, want := Fit(m, FitOptions{}), referenceFit(m)
			t.Logf("%s seed %d: %d iterations", tc.name, seed, got.Iterations)
			switch {
			case got.Iterations == maxIter:
				capped++
			case got.Iterations > 1:
				converged++
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s seed %d: %d iterations, reference %d", tc.name, seed, got.Iterations, want.Iterations)
			}
			if math.Float64bits(got.Prior) != math.Float64bits(want.Prior) {
				t.Errorf("%s seed %d: prior %v, reference %v", tc.name, seed, got.Prior, want.Prior)
			}
			if !sameBits(got.Acc, want.Acc) {
				t.Errorf("%s seed %d: accuracies\n got %v\nwant %v", tc.name, seed, got.Acc, want.Acc)
			}
			if gm, wm := got.Marginals(m), referenceMarginals(want, m); !sameBits(gm, wm) {
				t.Errorf("%s seed %d: marginals differ from the reference", tc.name, seed)
			}
		}
	}
	if capped == 0 || converged == 0 {
		t.Errorf("%d fits stopped at the %d-iteration cap and %d at the tolerance; both exits must be reached", capped, maxIter, converged)
	}
}

// TestMarginalsMatchReferenceOnForeignModel covers Marginals on a model
// that was not fitted on the matrix (a hand-built one, as a resumed
// session would hold).
func TestMarginalsMatchReferenceOnForeignModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := &Matrix{Votes: randomVotes(rng, 700, 9, 0.35), NumLFs: 9}
	mod := &Model{Acc: make([]float64, 9), Prior: 0.31}
	for j := range mod.Acc {
		mod.Acc[j] = 0.55 + 0.4*rng.Float64()
	}
	if got, want := mod.Marginals(m), referenceMarginals(mod, m); !sameBits(got, want) {
		t.Error("marginals differ from the reference")
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
