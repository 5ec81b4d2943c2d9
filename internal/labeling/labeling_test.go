package labeling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
)

// Label returns Λ[i,j] as -1, 0 or +1.
func (m *Matrix) Label(i, j int) int { return int(m.Votes[i][j]) }

// abstaining returns a numCands × numLFs label matrix of abstains.
func abstaining(numCands, numLFs int) *Matrix {
	m := &Matrix{Votes: make([][]int8, numCands), NumLFs: numLFs}
	for i := range m.Votes {
		m.Votes[i] = make([]int8, numLFs)
	}
	return m
}

// Apply runs every LF over every candidate, writing labels cell by
// cell into a new matrix: the sequential reference ParallelApply is
// tested against.
func Apply(lfs []LF, cands []*candidates.Candidate) *Matrix {
	m := abstaining(len(cands), len(lfs))
	for _, c := range cands {
		for j, lf := range lfs {
			applyOne(m, c, j, lf)
		}
	}
	return m
}

// applyOne writes one LF's clamped vote on one candidate into column
// col, overwriting the cell.
func applyOne(m *Matrix, c *candidates.Candidate, col int, lf LF) {
	m.Votes[c.ID][col] = clampVote(lf.Fn(c))
}

// makeCands fabricates n candidates with dense IDs over a dummy
// document (LF tests only need IDs and values).
func makeCands(t *testing.T, vals []string) []*candidates.Candidate {
	t.Helper()
	b := datamodel.NewBuilder("d", "html")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	out := make([]*candidates.Candidate, len(vals))
	for i, v := range vals {
		s := b.AddSentence(p, []string{v})
		out[i] = &candidates.Candidate{
			ID:       i,
			Mentions: []candidates.Mention{{TypeName: "X", Span: datamodel.Span{Sentence: s, Start: 0, End: 1}}},
		}
	}
	b.Finish()
	return out
}

func lfEquals(name, val string, lbl int) LF {
	return LF{Name: name, Modality: features.Textual, Fn: func(c *candidates.Candidate) int {
		if c.Mentions[0].Span.Text() == val {
			return lbl
		}
		return 0
	}}
}

func TestApplyAndLabels(t *testing.T) {
	cands := makeCands(t, []string{"a", "b", "a", "c"})
	lfs := []LF{
		lfEquals("is-a", "a", +1),
		lfEquals("is-b", "b", -1),
	}
	m := Apply(lfs, cands)
	if len(m.Votes) != 4 || m.NumLFs != 2 {
		t.Fatalf("dims = %d x %d", len(m.Votes), m.NumLFs)
	}
	if m.Label(0, 0) != 1 || m.Label(1, 1) != -1 || m.Label(3, 0) != 0 {
		t.Fatal("labels wrong")
	}
	if m.Covered(3) || !m.Covered(0) {
		t.Fatalf("rows 0 and 3: %v %v", m.Votes[0], m.Votes[3])
	}
}

func TestApplyClampsWildValues(t *testing.T) {
	cands := makeCands(t, []string{"a"})
	wild := LF{Name: "wild", Fn: func(*candidates.Candidate) int { return 7 }}
	m := Apply([]LF{wild}, cands)
	if m.Label(0, 0) != 1 {
		t.Fatalf("clamped label = %d", m.Label(0, 0))
	}
	wildNeg := LF{Name: "wildneg", Fn: func(*candidates.Candidate) int { return -9 }}
	m2 := Apply([]LF{wildNeg}, cands)
	if m2.Label(0, 0) != -1 {
		t.Fatalf("clamped label = %d", m2.Label(0, 0))
	}
}

func TestMetrics(t *testing.T) {
	cands := makeCands(t, []string{"a", "b", "c", "d"})
	lfs := []LF{
		lfEquals("is-a+", "a", +1),
		lfEquals("is-a-", "a", -1), // conflicts with is-a+ on "a"
		lfEquals("is-b", "b", +1),
	}
	m := Apply(lfs, cands)
	got := ComputeMetrics(m)
	// Covered: a (2 LFs), b (1 LF) -> 2/4.
	if got.Coverage != 0.5 {
		t.Fatalf("coverage = %v", got.Coverage)
	}
	// Overlap: only "a" has >= 2 labels -> 1/4.
	if got.Overlap != 0.25 {
		t.Fatalf("overlap = %v", got.Overlap)
	}
	// Conflict: only "a" -> 1/4.
	if got.Conflict != 0.25 {
		t.Fatalf("conflict = %v", got.Conflict)
	}
	if len(got.PerLF) != 3 {
		t.Fatalf("per-LF = %d", len(got.PerLF))
	}
	if got.PerLF[0].Coverage != 0.25 || got.PerLF[0].Conflict != 0.25 {
		t.Fatalf("per-LF[0] = %+v", got.PerLF[0])
	}
	if got.PerLF[2].Conflict != 0 {
		t.Fatalf("per-LF[2] = %+v", got.PerLF[2])
	}
	// Empty matrix.
	empty := &Matrix{NumLFs: 2}
	if mm := ComputeMetrics(empty); mm.Coverage != 0 {
		t.Fatal("empty metrics")
	}
}

// synthMatrix builds a label matrix from LFs with known accuracies
// applied to candidates with known true labels.
func synthMatrix(rng *rand.Rand, n int, accs []float64, coverage float64) (*Matrix, []bool) {
	truth := make([]bool, n)
	for i := range truth {
		truth[i] = rng.Float64() < 0.4
	}
	m := abstaining(n, len(accs))
	for i := 0; i < n; i++ {
		for j, a := range accs {
			if rng.Float64() > coverage {
				continue
			}
			correct := rng.Float64() < a
			lbl := int8(-1)
			if truth[i] == correct {
				lbl = 1
			}
			m.Votes[i][j] = lbl
		}
	}
	return m, truth
}

func TestFitRecoversAccuracies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	accs := []float64{0.9, 0.85, 0.6, 0.55}
	m, truth := synthMatrix(rng, 3000, accs, 0.8)
	mod := Fit(m, FitOptions{})
	// Accurate LFs must be scored above noisy ones.
	if mod.Acc[0] < mod.Acc[2] || mod.Acc[1] < mod.Acc[3] {
		t.Fatalf("accuracy ordering lost: %v", mod.Acc)
	}
	if math.Abs(mod.Acc[0]-0.9) > 0.08 {
		t.Fatalf("acc[0] = %v, want ~0.9", mod.Acc[0])
	}
	// Marginals must beat majority vote on noisy LFs.
	marg := mod.Marginals(m)
	mv := MajorityVote(m)
	correct := func(p []float64) int {
		n := 0
		for i, v := range p {
			if (v > 0.5) == truth[i] {
				n++
			}
		}
		return n
	}
	if correct(marg) < correct(mv) {
		t.Fatalf("generative model (%d) should not lose to majority vote (%d)",
			correct(marg), correct(mv))
	}
	if mod.String() == "" {
		t.Fatal("String")
	}
}

func TestFitEmpty(t *testing.T) {
	m := &Matrix{}
	mod := Fit(m, FitOptions{})
	if mod.Prior != 0.5 {
		t.Fatalf("empty prior = %v", mod.Prior)
	}
	marg := mod.Marginals(m)
	if len(marg) != 0 {
		t.Fatal("empty marginals")
	}
}

func TestPosteriorDirections(t *testing.T) {
	mod := &Model{Acc: []float64{0.9, 0.9}, Prior: 0.5}
	pos := mod.posterior([]vote{{lf: 0, pos: true}, {lf: 1, pos: true}})
	neg := mod.posterior([]vote{{lf: 0}, {lf: 1}})
	mixed := mod.posterior([]vote{{lf: 0, pos: true}, {lf: 1}})
	if pos < 0.9 || neg > 0.1 {
		t.Fatalf("posteriors: pos=%v neg=%v", pos, neg)
	}
	if math.Abs(mixed-0.5) > 1e-9 {
		t.Fatalf("balanced conflict should be 0.5, got %v", mixed)
	}
	if p := mod.posterior(nil); p != 0.5 {
		t.Fatalf("empty row posterior = %v", p)
	}
}

// MajorityVote returns marginals by unweighted voting — the baseline
// data programming improves on. Ties and empty rows yield 0.5.
func MajorityVote(m *Matrix) []float64 {
	out := make([]float64, len(m.Votes))
	for i, row := range m.Votes {
		pos, neg := 0, 0
		for _, v := range row {
			if v > 0 {
				pos++
			} else if v < 0 {
				neg++
			}
		}
		// Laplace-smoothed vote fraction; empty rows and ties yield 0.5.
		out[i] = float64(pos+1) / float64(pos+neg+2)
	}
	return out
}

func TestMajorityVote(t *testing.T) {
	m := &Matrix{Votes: [][]int8{
		{1, 1, -1},
		{-1, 0, 0},
		{0, 0, 0}, // empty
	}, NumLFs: 3}
	mv := MajorityVote(m)
	if mv[0] <= 0.5 {
		t.Fatalf("2-vs-1 positive = %v", mv[0])
	}
	if mv[1] >= 0.5 {
		t.Fatalf("lone negative = %v", mv[1])
	}
	if mv[2] != 0.5 {
		t.Fatalf("empty row = %v", mv[2])
	}
}

func TestModalityFilters(t *testing.T) {
	lfs := []LF{
		{Name: "t", Modality: features.Textual},
		{Name: "s", Modality: features.Structural},
		{Name: "v", Modality: features.Visual},
		{Name: "b", Modality: features.Tabular},
	}
	if got := TextualOnly(lfs); len(got) != 1 || got[0].Name != "t" {
		t.Fatalf("TextualOnly = %v", got)
	}
	if got := MetadataOnly(lfs); len(got) != 3 {
		t.Fatalf("MetadataOnly = %v", got)
	}
}

func TestApplyOneIncremental(t *testing.T) {
	cands := makeCands(t, []string{"a", "b"})
	m := abstaining(len(cands), 1)
	lf := lfEquals("is-a", "a", +1)
	for _, c := range cands {
		applyOne(m, c, 0, lf)
	}
	if m.Label(0, 0) != 1 || m.Label(1, 0) != 0 {
		t.Fatal("incremental apply")
	}
	// Editing the LF (now labels b) and re-applying overwrites.
	lf2 := lfEquals("is-b", "b", -1)
	for _, c := range cands {
		applyOne(m, c, 0, lf2)
	}
	if m.Label(0, 0) != 0 || m.Label(1, 0) != -1 {
		t.Fatal("re-apply must overwrite")
	}
}
