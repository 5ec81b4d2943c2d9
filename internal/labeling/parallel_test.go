package labeling

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/candidates"
)

// matricesEqual compares two label matrices cell-semantically: same
// dimensions and the same live value at every (candidate, LF) cell.
func matricesEqual(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.NumCands != want.NumCands || got.NumLFs != want.NumLFs {
		t.Fatalf("dims: got %dx%d want %dx%d", got.NumCands, got.NumLFs, want.NumCands, want.NumLFs)
	}
	g, w := got.Compact(), want.Compact()
	if g.M.NNZ() != w.M.NNZ() {
		t.Fatalf("NNZ: got %d want %d", g.M.NNZ(), w.M.NNZ())
	}
	for i := 0; i < want.NumCands; i++ {
		if !reflect.DeepEqual(g.RowLabels(i), w.RowLabels(i)) {
			t.Fatalf("row %d: got %v want %v", i, g.RowLabels(i), w.RowLabels(i))
		}
	}
}

// randomLFs builds n deterministic pseudo-random LFs: each votes
// -1/0/+1 as a pure function of (candidate ID, LF seed), so sharded
// application must reproduce sequential application exactly.
func randomLFs(n int, seed int64) []LF {
	out := make([]LF, n)
	for j := range out {
		s := seed + int64(j)*7919
		out[j] = LF{Name: fmt.Sprintf("rand-%d", j), Fn: func(c *candidates.Candidate) int {
			r := rand.New(rand.NewSource(s + int64(c.ID)*104729))
			return r.Intn(3) - 1
		}}
	}
	return out
}

// TestParallelApplyMatchesSequential is the property test for sharded
// LF application: over randomized LF sets and candidate-set sizes
// (including sizes spanning multiple shards), ParallelApply must equal
// Apply at every worker count, and the COO logs must match entry for
// entry so development-mode incremental updates behave identically.
func TestParallelApplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		nCands := []int{3, parallelShardSize - 1, parallelShardSize + 5, 3*parallelShardSize + 17}[trial]
		nLFs := 1 + rng.Intn(6)
		vals := make([]string, nCands)
		for i := range vals {
			vals[i] = fmt.Sprintf("w%d", i%7)
		}
		cands := makeCands(t, vals)
		lfs := randomLFs(nLFs, int64(trial)*31)
		want := Apply(lfs, cands)
		for _, workers := range []int{1, 2, 3, 8, 0} {
			got := ParallelApply(lfs, cands, workers)
			matricesEqual(t, got, want)
			// The raw COO logs must also coincide (write order matters
			// for the development-mode update path).
			if want.M.NNZ() != got.M.NNZ() {
				t.Fatalf("trial %d workers %d: COO NNZ %d != %d", trial, workers, got.M.NNZ(), want.M.NNZ())
			}
		}
	}
}

// TestParallelApplyEdgeCases covers the empty-LF set and the
// all-abstain LF set.
func TestParallelApplyEdgeCases(t *testing.T) {
	vals := make([]string, 2*parallelShardSize)
	for i := range vals {
		vals[i] = "x"
	}
	cands := makeCands(t, vals)

	// Empty LF set: a k x 0 matrix with an empty log.
	m := ParallelApply(nil, cands, 4)
	if m.NumLFs != 0 || m.NumCands != len(cands) || m.M.NNZ() != 0 {
		t.Fatalf("empty LF set: %dx%d nnz=%d", m.NumCands, m.NumLFs, m.M.NNZ())
	}

	// All-abstain LFs: full log of zeros, no live cells, zero coverage.
	abstain := []LF{
		{Name: "a0", Fn: func(*candidates.Candidate) int { return 0 }},
		{Name: "a1", Fn: func(*candidates.Candidate) int { return 0 }},
	}
	m = ParallelApply(abstain, cands, 4)
	matricesEqual(t, m, Apply(abstain, cands))
	if got := ComputeMetrics(m); got.Coverage != 0 {
		t.Fatalf("all-abstain coverage = %v", got.Coverage)
	}
}
