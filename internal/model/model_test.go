package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/neural"
)

// makeExample fabricates a single-mention candidate whose sentence
// contains the cue word and whose sparse features are given.
func makeExample(id int, cue string, feats []int, marginal float64) Example {
	b := datamodel.NewBuilder(fmt.Sprintf("doc%d", id), "html")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	s := b.AddSentence(p, []string{"the", "part", "X" + fmt.Sprint(id%7), "is", cue, "today"})
	b.Finish()
	c := &candidates.Candidate{
		ID:       id,
		Mentions: []candidates.Mention{{TypeName: "X", Span: datamodel.Span{Sentence: s, Start: 2, End: 3}}},
	}
	return Example{Cand: c, SparseFeats: feats, Marginal: marginal}
}

// textualDataset labels by cue word only.
func textualDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = makeExample(i, "excellent", nil, 1)
		} else {
			out[i] = makeExample(i, "terrible", nil, 0)
		}
	}
	return out
}

// sparseDataset labels by feature identity only (cue word neutral).
func sparseDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = makeExample(i, "neutral", []int{3, 5}, 1)
		} else {
			out[i] = makeExample(i, "neutral", []int{7, 5}, 0)
		}
	}
	return out
}

func accuracy(m *Model, exs []Example) float64 {
	correct := 0
	for _, ex := range exs {
		if m.Classify(ex, 0.5) == (ex.Marginal > 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(exs))
}

func TestTextModelLearnsTextualCue(t *testing.T) {
	exs := textualDataset(24)
	m := NewTextBiLSTM(1, 42, exs)
	st := m.Train(exs, TrainOptions{Epochs: 12, LR: 0.02})
	if st.FinalLoss > 0.3 {
		t.Fatalf("final loss = %v", st.FinalLoss)
	}
	if acc := accuracy(m, exs); acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
	if st.SecsPerEpoch <= 0 || st.Epochs != 12 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSparseModelLearnsFeatureCue(t *testing.T) {
	exs := sparseDataset(24)
	m := NewHumanTuned(10, 42)
	m.Train(exs, TrainOptions{Epochs: 20, LR: 0.1})
	if acc := accuracy(m, exs); acc < 0.95 {
		t.Fatalf("accuracy = %v", acc)
	}
	// Text-only model cannot separate this dataset (all cues neutral):
	// accuracy stays near chance.
	tm := NewTextBiLSTM(1, 42, exs)
	tm.Train(exs, TrainOptions{Epochs: 5, LR: 0.02})
	if acc := accuracy(tm, exs); acc > 0.8 {
		t.Fatalf("text-only model should not learn sparse-only dataset, acc = %v", acc)
	}
}

func TestFonduerCombinesModalities(t *testing.T) {
	// Half the signal is textual, half is sparse: only the combined
	// model can get both subsets right.
	var exs []Example
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			exs = append(exs, makeExample(i, "excellent", []int{1}, 1))
		} else {
			exs = append(exs, makeExample(i, "terrible", []int{1}, 0))
		}
	}
	for i := 12; i < 24; i++ {
		if i%2 == 0 {
			exs = append(exs, makeExample(i, "neutral", []int{3}, 1))
		} else {
			exs = append(exs, makeExample(i, "neutral", []int{7}, 0))
		}
	}
	m := NewFonduer(1, 10, 42, exs)
	m.Train(exs, TrainOptions{Epochs: 25, LR: 0.03})
	if acc := accuracy(m, exs); acc < 0.9 {
		t.Fatalf("multimodal accuracy = %v", acc)
	}
}

func TestNoiseAwareTargets(t *testing.T) {
	// Soft labels around 0.5 should produce predictions near 0.5, not
	// saturate.
	var exs []Example
	for i := 0; i < 10; i++ {
		exs = append(exs, makeExample(i, "neutral", []int{2}, 0.55))
	}
	m := NewHumanTuned(5, 1)
	m.Train(exs, TrainOptions{Epochs: 30, LR: 0.05})
	p := m.PredictProb(exs[0])
	if math.Abs(p-0.55) > 0.1 {
		t.Fatalf("soft-label prediction = %v, want ~0.55", p)
	}
}

func TestDeterminism(t *testing.T) {
	exs := textualDataset(12)
	m1 := NewTextBiLSTM(1, 7, exs)
	m1.Train(exs, TrainOptions{Epochs: 3})
	m2 := NewTextBiLSTM(1, 7, exs)
	m2.Train(exs, TrainOptions{Epochs: 3})
	for _, ex := range exs {
		a, b := m1.PredictProb(ex), m2.PredictProb(ex)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestDocRNNRunsAndIsSlower(t *testing.T) {
	exs := textualDataset(8)
	doc := NewDocRNN(42, exs, 100)
	stDoc := doc.Train(exs, TrainOptions{Epochs: 2})
	if stDoc.SecsPerEpoch <= 0 {
		t.Fatal("doc RNN stats")
	}
	for _, ex := range exs {
		p := doc.PredictProb(ex)
		if p < 0 || p > 1 {
			t.Fatalf("prob = %v", p)
		}
	}
}

func TestMaxPoolVariant(t *testing.T) {
	exs := textualDataset(16)
	m := NewMaxPoolText(1, 42, exs)
	m.Train(exs, TrainOptions{Epochs: 12, LR: 0.02})
	if acc := accuracy(m, exs); acc < 0.8 {
		t.Fatalf("maxpool accuracy = %v", acc)
	}
}

func TestSRVVariant(t *testing.T) {
	exs := sparseDataset(16)
	m := NewSRV(10, 3)
	m.Train(exs, TrainOptions{Epochs: 15, LR: 0.1})
	if acc := accuracy(m, exs); acc < 0.9 {
		t.Fatalf("srv accuracy = %v", acc)
	}
}

func TestFrozenVocabHandlesUnseenWords(t *testing.T) {
	exs := textualDataset(8)
	m := NewTextBiLSTM(1, 42, exs)
	m.Train(exs, TrainOptions{Epochs: 2})
	unseen := makeExample(99, "zzznever", nil, 1)
	p := m.PredictProb(unseen)
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("unseen-word prob = %v", p)
	}
}

func TestOutOfRangeSparseFeaturesIgnored(t *testing.T) {
	ex := makeExample(0, "x", []int{-1, 999999}, 1)
	m := NewHumanTuned(5, 1)
	p := m.PredictProb(ex)
	if math.IsNaN(p) {
		t.Fatal("NaN")
	}
}

// paramCount returns the number of the model's trainable scalars.
func paramCount(m *Model) int {
	n := 0
	for _, p := range m.params {
		n += len(p.W)
	}
	return n
}

func TestParamCount(t *testing.T) {
	exs := textualDataset(4)
	m := NewFonduer(1, 100, 1, exs)
	if paramCount(m) <= 0 {
		t.Fatal("param count")
	}
	sparseOnly := NewHumanTuned(100, 1)
	if n := paramCount(sparseOnly); n != 2*100+2 {
		t.Fatalf("sparse-only params = %d", n)
	}
}

// mixedDataset combines textual and sparse signal so the Fonduer
// variant exercises every parameter group (embeddings, Bi-LSTM,
// attention, both heads) during the equivalence tests below.
func mixedDataset(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		cue := "excellent"
		feats := []int{1, 3}
		marginal := 1.0
		if i%2 == 1 {
			cue, feats, marginal = "terrible", []int{2, 7}, 0
		}
		out[i] = makeExample(i, cue, feats, marginal)
	}
	return out
}

// weights snapshots every trainable scalar in params order.
func weights(m *Model) [][]float64 {
	out := make([][]float64, len(m.params))
	for i, p := range m.params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

// mustEqualWeights asserts two snapshots are bitwise identical.
func mustEqualWeights(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param group count %d vs %d", label, len(a), len(b))
	}
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatalf("%s: param %d[%d]: %v vs %v", label, p, i, a[p][i], b[p][i])
			}
		}
	}
}

// clipGrad scales the gradients in place so that their global L2 norm
// is at most c — the clip as the sequential loop applied it, before the
// factor was folded into Adam's step — and reports whether it did.
func clipGrad(ps neural.Params, c float64) bool {
	scale := ps.ClipScale(c)
	if scale == 1 {
		return false
	}
	for _, p := range ps {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
	return true
}

// referenceTrain is the plain per-example loop — a fresh tape, a full
// gradient zeroing, a clip over every parameter and one Adam step per
// example — kept as the trajectory oracle for Train, whose step reuses
// its tape and zeroes and clips only what the example wrote. It also
// returns the number of steps whose clip bound.
func referenceTrain(m *Model, examples []Example, opts TrainOptions) (lastLoss float64, clipped int) {
	opts.defaults()
	optim := neural.NewAdam(opts.LR)
	optim.WeightDecay = opts.L2
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		optim.LR = opts.LR / (1 + lrDecay*float64(epoch))
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			ex := examples[idx]
			m.params.ZeroGrad()
			tp := neural.NewTape()
			var seqs seqIDs
			m.encode(&seqs, ex.Cand)
			logits := m.forward(tp, &seqs, ex.SparseFeats, nil)
			loss, node := neural.NoiseAwareCE(tp, logits, ex.Marginal)
			tp.Backward(node)
			if clipGrad(m.params, opts.Clip) {
				clipped++
			}
			optim.StepScaled(m.params, 1)
			total += loss
		}
		if len(examples) > 0 {
			lastLoss = total / float64(len(examples))
		}
	}
	return lastLoss, clipped
}

// TestTrainMatchesSequentialReference pins Train to the plain
// per-example loop: same weights bit for bit, same reported loss. The
// long case runs past step 356, where Adam's bias correction 1−β₁ᵗ
// rounds to 1, with weight decay and a clip that binds on most steps,
// so that the touched-set clip norm and the kernel without m/b1t are on
// the path.
func TestTrainMatchesSequentialReference(t *testing.T) {
	exs := mixedDataset(12)
	for _, tc := range []struct {
		name string
		opts TrainOptions
	}{
		{"short", TrainOptions{Epochs: 3, LR: 0.02}},
		{"past step 356, L2, clip", TrainOptions{Epochs: 31, LR: 0.02, L2: 1e-4, Clip: 0.001}},
	} {
		ref := NewFonduer(1, 10, 99, exs)
		refLoss, clipped := referenceTrain(ref, exs, tc.opts)
		if steps := tc.opts.Epochs * len(exs); tc.opts.Clip > 0 && (steps <= 356 || 2*clipped < steps) {
			t.Fatalf("%s: %d steps, the clip bound on %d: want past 356 and most", tc.name, steps, clipped)
		}
		m := NewFonduer(1, 10, 99, exs)
		st := m.Train(exs, tc.opts)
		mustEqualWeights(t, tc.name, weights(ref), weights(m))
		if st.FinalLoss != refLoss {
			t.Fatalf("%s: FinalLoss %v, reference %v", tc.name, st.FinalLoss, refLoss)
		}
	}
}

// pairExample builds a binary candidate over two spans of one sentence.
func pairExample(id int, s *datamodel.Sentence, a, b [2]int) Example {
	return Example{Cand: &candidates.Candidate{ID: id, Mentions: []candidates.Mention{
		{TypeName: "Part", Span: datamodel.Span{Sentence: s, Start: a[0], End: a[1]}},
		{TypeName: "Value", Span: datamodel.Span{Sentence: s, Start: b[0], End: b[1]}},
	}}, SparseFeats: []int{id % 3}, Marginal: float64(id % 2)}
}

// TestPredictProbsMemo pins PredictProbs' per-document memo on
// hand-built candidates: probabilities bit-identical to PredictProb,
// and exactly the encodings a memo keyed by token ids must run — a
// mention shared by two candidates is encoded once, the same span as
// argument 0 and as argument 1 twice (its markers differ), and a second
// document with the same words again (the memo holds one document).
func TestPredictProbsMemo(t *testing.T) {
	sentence := func(name string) *datamodel.Sentence {
		b := datamodel.NewBuilder(name, "html")
		s := b.AddSentence(b.AddParagraph(b.AddText()), []string{"the", "BC547", "collector", "current", "is", "100", "mA", "at", "25", "C"})
		b.Finish()
		return s
	}
	s1, s2 := sentence("d1"), sentence("d2")
	part, ma, c := [2]int{1, 2}, [2]int{5, 7}, [2]int{8, 10}
	exs := []Example{
		pairExample(0, s1, part, ma), // 2 encodings
		pairExample(1, s1, part, c),  // part as argument 0 again: 1
		pairExample(2, s1, ma, part), // both spans in the other role: 2
		pairExample(3, s2, part, ma), // same words, another document: 2
	}
	const wantEncoded = 7

	for name, m := range map[string]*Model{
		"fonduer": NewFonduer(2, 3, 5, exs),
		"maxpool": NewMaxPoolText(2, 5, exs),
		"docrnn":  NewDocRNN(5, exs, 40),
		"sparse":  NewHumanTuned(3, 5),
	} {
		m.Train(exs, TrainOptions{Epochs: 1})
		probs := make([]float64, len(exs))
		encoded := m.PredictProbs(exs, probs)
		for i, ex := range exs {
			if want := m.PredictProb(ex); math.Float64bits(probs[i]) != math.Float64bits(want) {
				t.Errorf("%s: candidate %d: PredictProbs %v, PredictProb %v", name, i, probs[i], want)
			}
		}
		want := wantEncoded
		switch name {
		case "docrnn":
			want = len(exs) // one sequence per candidate, no memo
		case "sparse":
			want = 0
		}
		if encoded != want {
			t.Errorf("%s: %d sequences encoded, want %d", name, encoded, want)
		}
	}
}
