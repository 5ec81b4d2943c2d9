package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/labeling"
	"repro/internal/synth"
)

// The async-publication equivalence suite at the core level. The
// serving layer's replay test proves the end-to-end property over
// HTTP; these tests pin the primitives it is built from:
//
//   - Retrain over a view's raw feature-name rows reproduces a
//     from-scratch Run and the store's RunSplit bitwise (raw staging ≡
//     matrix staging).
//   - A ViewDelta chain serves the same bytes as reclassifying the
//     whole corpus under the inherited generation (AdoptModel).
//   - Every retrain is cold, so a generation is a function of its
//     corpus alone, whatever chain of views led to it.

// TestViewRetrainMatchesView: a delta view cold-retrained at epoch e
// must be bit-identical to the independent oracles over the same
// corpus — a from-scratch core.Run and the store's own RunSplit, both
// with train = test = every document — same Result, same KB. Store.View
// is itself built from Retrain, so it is no oracle here. This is the
// lemma that lets the trainer feed runStages from the view's raw
// feature-name rows instead of the store's materialized matrix.
func TestViewRetrainMatchesView(t *testing.T) {
	corpus := synth.Electronics(71, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 7, Epochs: 2, Workers: 2}

	st := core.NewStore(task, opts)
	if err := st.AddDocuments(corpus.Docs[:4]...); err != nil {
		t.Fatal(err)
	}
	v1, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddDocuments(corpus.Docs[4:]...); err != nil {
		t.Fatal(err)
	}
	delta, err := st.ViewDelta(v1, gold)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Epoch() != 2 || delta.Generation() != v1.Generation() {
		t.Fatalf("delta at (epoch %d, generation %d), want (2, %d)", delta.Epoch(), delta.Generation(), v1.Generation())
	}

	retrained, err := delta.Retrain(core.RetrainConfig{Gold: gold, Generation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if retrained.Generation() != 1 || retrained.ModelTrainedAtEpoch() != 2 {
		t.Fatalf("retrained stamps = (gen %d, trainedAt %d)", retrained.Generation(), retrained.ModelTrainedAtEpoch())
	}

	got := normalizeResult(retrained.Result())
	want := normalizeResult(core.Run(task, corpus.Docs, corpus.Docs, gold, opts))
	if want.TrainCandidates == 0 || want.NumFeatures == 0 {
		t.Fatalf("degenerate baseline: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Retrain differs from from-scratch Run\n got: %+v\nwant: %+v", got, want)
	}
	split, err := st.RunSplit(st.DocNames(), st.DocNames(), gold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, normalizeResult(split)) {
		t.Errorf("Retrain differs from Store.RunSplit\n got: %+v\nwant: %+v", got, normalizeResult(split))
	}
	// The KB holds the distinct value tuples of the oracle's predictions,
	// first occurrence first.
	var wantKB [][]string
	seen := map[string]bool{}
	for _, tp := range want.Predicted {
		if key := strings.Join(tp.Values, "\x00"); !seen[key] {
			seen[key] = true
			wantKB = append(wantKB, tp.Values)
		}
	}
	var gotKB [][]string
	for _, row := range retrained.KB().Tuples() {
		vals := make([]string, len(row))
		for i, cell := range row {
			vals[i] = cell.(string)
		}
		gotKB = append(gotKB, vals)
	}
	if !reflect.DeepEqual(gotKB, wantKB) {
		t.Errorf("Retrain KB differs from the oracle's distinct predictions\n got: %v\nwant: %v", gotKB, wantKB)
	}
	if len(wantKB) == 0 {
		t.Fatal("no tuples predicted; test is vacuous")
	}
}

// TestViewDeltaMatchesAdopt: however the corpus is split into delta
// epochs, the chain's served tuples equal the canonical full
// reclassification of the same corpus under the same generation
// (AdoptModel) — the prefix-extension lemma behind delta publication.
func TestViewDeltaMatchesAdopt(t *testing.T) {
	corpus := synth.Electronics(72, 9)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 3, Epochs: 2, Workers: 2}

	st := core.NewStore(task, opts)
	if err := st.AddDocuments(corpus.Docs[:3]...); err != nil {
		t.Fatal(err)
	}
	base, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}

	chain := base
	for _, hi := range []int{6, 9} {
		if err := st.AddDocuments(corpus.Docs[len(chain.DocNames()):hi]...); err != nil {
			t.Fatal(err)
		}
		chain, err = st.ViewDelta(chain, gold)
		if err != nil {
			t.Fatal(err)
		}
		adopt, err := chain.AdoptModel(base, gold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chain.Result().Predicted, adopt.Result().Predicted) {
			t.Errorf("epoch %d: delta chain predicted %d tuples, full reclassification %d — sets differ",
				chain.Epoch(), len(chain.Result().Predicted), len(adopt.Result().Predicted))
		}
		if !reflect.DeepEqual(chain.KB().Tuples(), adopt.KB().Tuples()) {
			t.Errorf("epoch %d: delta chain KB differs from AdoptModel KB", chain.Epoch())
		}
		if adopt.Generation() != base.Generation() || adopt.Epoch() != chain.Epoch() {
			t.Errorf("adopt stamps = (epoch %d, gen %d), want (%d, %d)",
				adopt.Epoch(), adopt.Generation(), chain.Epoch(), base.Generation())
		}
	}
	if len(chain.Result().Predicted) == 0 {
		t.Fatal("no tuples predicted; test is vacuous")
	}
}

// TestViewDeltaAfterLFChange: votes, marginals and LF names are epoch
// state, so a delta published after a labeling function was edited or
// added carries the store's current ones — bit-identical to a full View
// at the same epoch — while its KB stays prev's generation's: the
// epoch's corpus reclassified under prev's model. A view of another
// store is refused as a predecessor.
func TestViewDeltaAfterLFChange(t *testing.T) {
	corpus := synth.Electronics(71, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 7, Epochs: 2, Workers: 2}
	always := labeling.LF{Name: "always_positive", Fn: func(*candidates.Candidate) int { return 1 }}

	for _, tc := range []struct {
		name   string
		change func(*core.Store) error
	}{
		{"EditLF", func(st *core.Store) error { return st.EditLF(0, always) }},
		{"AddLF", func(st *core.Store) error { _, err := st.AddLF(always); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := core.NewStore(task, opts)
			if err := st.AddDocuments(corpus.Docs[:4]...); err != nil {
				t.Fatal(err)
			}
			prev, err := st.View(gold)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.change(st); err != nil {
				t.Fatal(err)
			}
			if err := st.AddDocuments(corpus.Docs[4:]...); err != nil {
				t.Fatal(err)
			}
			delta, err := st.ViewDelta(prev, gold)
			if err != nil {
				t.Fatalf("ViewDelta after %s: %v", tc.name, err)
			}
			full, err := st.View(gold)
			if err != nil {
				t.Fatal(err)
			}
			if delta.Epoch() != full.Epoch() || delta.Generation() != prev.Generation() {
				t.Fatalf("delta at (epoch %d, generation %d), want (%d, %d)", delta.Epoch(), delta.Generation(), full.Epoch(), prev.Generation())
			}
			changed := 0
			for i := range full.Candidates() {
				if !reflect.DeepEqual(delta.Votes(i), full.Votes(i)) {
					t.Fatalf("candidate %d: delta votes %v, full view %v", i, delta.Votes(i), full.Votes(i))
				}
				if i < len(prev.Candidates()) && !reflect.DeepEqual(delta.Votes(i), prev.Votes(i)) {
					changed++
				}
			}
			if changed == 0 {
				t.Fatal("the LF change altered no earlier candidate's votes; test is vacuous")
			}
			if !reflect.DeepEqual(delta.Marginals(), full.Marginals()) {
				t.Error("delta marginals differ from the full view's")
			}
			if !reflect.DeepEqual(delta.LFMetrics(), full.LFMetrics()) {
				t.Errorf("delta LF metrics differ from the full view's\n got: %+v\nwant: %+v", delta.LFMetrics(), full.LFMetrics())
			}
			if !reflect.DeepEqual(delta.LFNames(), full.LFNames()) {
				t.Errorf("delta LF names %v, full view %v", delta.LFNames(), full.LFNames())
			}

			adopt, err := delta.AdoptModel(prev, gold)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(delta.Result().Predicted, adopt.Result().Predicted) || !reflect.DeepEqual(delta.KB().Tuples(), adopt.KB().Tuples()) {
				t.Error("delta KB differs from the epoch's corpus reclassified under prev's generation")
			}
			if len(delta.Result().Predicted) == 0 {
				t.Fatal("no tuples predicted; test is vacuous")
			}

			other := core.NewStore(task, opts)
			if err := other.AddDocuments(corpus.Docs[:4]...); err != nil {
				t.Fatal(err)
			}
			foreign, err := other.View(gold)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.ViewDelta(foreign, gold); err == nil {
				t.Error("ViewDelta accepted a view of another store as its predecessor")
			}
		})
	}
}

// TestViewDeltaLeavesEarlierViewsAlone: a view shares the store's
// append-only lists in place — doc names, candidates, vote and feature
// rows, session feature names — and a delta view carries its
// predecessor's predicted tuples forward, so nothing a later ingest or
// LF edit adds or rebuilds may show through an earlier view — neither
// through the predecessor nor through a sibling built from the same
// predecessor — and building the same delta twice must give the same
// view.
func TestViewDeltaLeavesEarlierViewsAlone(t *testing.T) {
	corpus := synth.Electronics(72, 12)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	st := core.NewStore(task, core.Options{Seed: 3, Epochs: 2, Workers: 2})
	if err := st.AddDocuments(corpus.Docs[:3]...); err != nil {
		t.Fatal(err)
	}
	base, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		docs, feats, lfs []string
		predicted        []core.GoldTuple
		votes            [][]int8
		marginals        []float64
		stats            core.FeatureStats
		quality          core.PRF
	}
	capture := func(v *core.StoreView) state {
		votes := make([][]int8, len(v.Candidates()))
		for i := range votes {
			votes[i] = append([]int8(nil), v.Votes(i)...)
		}
		return state{append([]string(nil), v.DocNames()...), v.FeatureNames(), v.LFNames(), append([]core.GoldTuple(nil), v.Result().Predicted...),
			votes, append([]float64(nil), v.Marginals()...), v.FeatureStats(), v.Result().Quality}
	}
	views := []*core.StoreView{base}
	want := []state{capture(base)}
	for hi := 4; hi <= len(corpus.Docs); hi += 2 {
		prev := views[len(views)-1]
		if hi == 8 {
			// One step also rebuilds every vote row the earlier views hold.
			always := labeling.LF{Name: "always_positive", Fn: func(*candidates.Candidate) int { return 1 }}
			if err := st.EditLF(0, always); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.AddDocuments(corpus.Docs[prev.NumDocs():hi]...); err != nil {
			t.Fatal(err)
		}
		a, err := st.ViewDelta(prev, gold)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.ViewDelta(prev, gold)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := capture(a), capture(b); !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(a.KB().Tuples(), b.KB().Tuples()) {
			t.Fatalf("two deltas of epoch %d from the same predecessor differ", a.Epoch())
		}
		if a.NumDocs() != hi || a.FeatureStats().SessionFeatures != st.FeatureIndex().Len() {
			t.Fatalf("epoch %d: %d docs, %d session features; store has %d, %d",
				a.Epoch(), a.NumDocs(), a.FeatureStats().SessionFeatures, hi, st.FeatureIndex().Len())
		}
		views, want = append(views, a), append(want, capture(a))
		for i, v := range views {
			if got := capture(v); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("after epoch %d, the view of epoch %d changed", a.Epoch(), v.Epoch())
			}
		}
	}
	last := want[len(want)-1]
	if len(last.predicted) <= len(want[0].predicted) || len(last.feats) <= len(want[0].feats) {
		t.Fatal("the deltas added neither tuples nor features; test is vacuous")
	}
	if reflect.DeepEqual(last.lfs, want[0].lfs) || reflect.DeepEqual(last.votes[:len(want[0].votes)], want[0].votes) {
		t.Fatal("the LF edit changed no LF name or earlier vote; test is vacuous")
	}
}

// TestBulkClassifyWorkerDeterminism: bulk classification scores
// candidates concurrently on one shared model (core.Run's classify
// stage, AdoptModel's whole-corpus reclassification), then thresholds
// and deduplicates in index order — so the predicted list, order
// included, must not depend on the worker count. Run under -race this
// also proves the forward-only inference path shares nothing mutable.
func TestBulkClassifyWorkerDeterminism(t *testing.T) {
	corpus := synth.Electronics(74, 12)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]

	classify := func(workers int) (run, adopted []core.GoldTuple) {
		opts := core.Options{Seed: 5, Epochs: 2, Workers: workers}
		run = core.Run(task, corpus.Docs[:6], corpus.Docs[6:], gold, opts).Predicted

		st := core.NewStore(task, opts)
		if err := st.AddDocuments(corpus.Docs[:6]...); err != nil {
			t.Fatal(err)
		}
		base, err := st.View(gold)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddDocuments(corpus.Docs[6:]...); err != nil {
			t.Fatal(err)
		}
		delta, err := st.ViewDelta(base, gold)
		if err != nil {
			t.Fatal(err)
		}
		adopt, err := delta.AdoptModel(base, gold)
		if err != nil {
			t.Fatal(err)
		}
		return run, adopt.Result().Predicted
	}

	wantRun, wantAdopted := classify(1)
	if len(wantRun) == 0 || len(wantAdopted) == 0 {
		t.Fatal("no tuples predicted; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		run, adopted := classify(workers)
		if !reflect.DeepEqual(run, wantRun) {
			t.Errorf("workers=%d: core.Run predicted list differs from workers=1", workers)
		}
		if !reflect.DeepEqual(adopted, wantAdopted) {
			t.Errorf("workers=%d: AdoptModel predicted list differs from workers=1", workers)
		}
	}
}
