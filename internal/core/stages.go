package core

import (
	"sort"
	"time"

	"repro/internal/candidates"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// The pipeline is decomposed into explicit stages over materialized
// per-candidate relations — the paper's Candidates, FeatureCounts,
// Features and Labels tables:
//
//	Extract   docs            -> Candidates          (parallel.go)
//	Featurize Candidates      -> Features(cand, name), FeatureCounts, CacheStats
//	Index     FeatureCounts   -> frozen feature Index (train-split counts)
//	Supervise Labels          -> marginals + coverage
//	Train     Features+Labels -> model
//	Classify  model+Features  -> predicted tuples + quality
//
// Run and RunWithCandidates compose the stages over transient
// in-memory relations; Store persists the same relations in kbase and
// re-runs only the stages a change invalidates (incremental document
// ingestion, labeling-function iteration). Because every stage's
// output is a pure, per-document-deterministic function of its input
// relations, stage results are bit-identical no matter how the corpus
// was batched into Extract/Featurize invocations and no matter the
// worker count.

// stagedSplit is one split's view of the staged relations: the
// candidates, each candidate's distinct feature names (the
// index-independent Features relation), and the cache statistics of
// the split's featurization pass.
type stagedSplit struct {
	cands []*candidates.Candidate
	names [][]string
	stats features.CacheStats
}

// extractorFactory builds the per-shard feature-extractor constructor
// for the run's options: cache switch, ablated modalities, and the
// SRV variant's HTML-only feature space.
func extractorFactory(opts Options) func() *features.Extractor {
	disabled := opts.DisabledModalities
	if opts.Variant == VariantSRV {
		// SRV learns from HTML features alone: structural + textual.
		disabled = append(append([]features.Modality{}, disabled...), features.Tabular, features.Visual)
	}
	return func() *features.Extractor {
		fx := features.NewExtractor()
		fx.UseCache = !opts.NoFeatureCache
		for _, m := range disabled {
			fx.Disabled[m] = true
		}
		return fx
	}
}

// distinctFeatures returns the candidate's feature names, first
// occurrence only, in emission order. Distinctness is what both
// downstream consumers want: the count stage counts candidates per
// feature, and the indicator matrix is {0,1}-valued.
func distinctFeatures(fx *features.Extractor, c *candidates.Candidate) []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range fx.Featurize(c) {
		if !seen[f.Name] {
			seen[f.Name] = true
			out = append(out, f.Name)
		}
	}
	return out
}

// featurizeStage runs the Featurize stage over a candidate list: one
// extractor (and therefore one mention cache) per document shard,
// producing each candidate's distinct feature names (aligned with
// cands) and the per-shard cache statistics. Shards are the
// per-document candidate runs of shardByDoc, so per-shard results are
// a per-document invariant: they do not depend on which other
// documents are in the batch, which is what makes incremental
// ingestion equivalent to a from-scratch run.
func featurizeStage(newFx func() *features.Extractor, cands []*candidates.Candidate, workers int) (names [][]string, shards [][]*candidates.Candidate, stats []features.CacheStats) {
	shards = shardByDoc(cands)
	perShard := make([][][]string, len(shards))
	stats = make([]features.CacheStats, len(shards))
	pool.Run(len(shards), workers, func(si int) {
		fx := newFx()
		out := make([][]string, len(shards[si]))
		for i, c := range shards[si] {
			out[i] = distinctFeatures(fx, c)
		}
		perShard[si] = out
		stats[si] = fx.Stats()
	})
	names = make([][]string, 0, len(cands))
	for _, sh := range perShard {
		names = append(names, sh...)
	}
	return names, shards, stats
}

// featurizeSplit is featurizeStage for a whole split, with the shard
// statistics already summed.
func featurizeSplit(newFx func() *features.Extractor, cands []*candidates.Candidate, workers int) stagedSplit {
	names, _, stats := featurizeStage(newFx, cands, workers)
	sp := stagedSplit{cands: cands, names: names}
	for _, st := range stats {
		sp.stats.Hits += st.Hits
		sp.stats.Misses += st.Misses
	}
	return sp
}

// indexStage builds the frozen feature index from the train split's
// feature counts — the FeatureCounts -> Index step. Counts are the
// number of train candidates each feature fires on; admission applies
// the MinFeatureCount floor in sorted-name order, so the index never
// depends on map iteration or batch order.
func indexStage(train stagedSplit, minCount int) *features.Index {
	counts := map[string]int{}
	for _, names := range train.names {
		for _, n := range names {
			counts[n]++
		}
	}
	return features.IndexFromCounts(counts, minCount)
}

// featureColumns maps one candidate's feature names through a frozen
// index, yielding its admitted column set in ascending order — one row
// of the numeric Features matrix the model consumes. Every consumer of
// a trained model (the staged run, delta and whole-corpus
// reclassification, ad-hoc document classification) builds its rows
// here.
func featureColumns(ix *features.Index, names []string) []int {
	var cols []int
	for _, n := range names {
		if id, ok := ix.Lookup(n); ok {
			cols = append(cols, id)
		}
	}
	sort.Ints(cols)
	return cols
}

// materializeStage is featureColumns over a whole split.
func materializeStage(sp stagedSplit, ix *features.Index) [][]int {
	rows := make([][]int, len(sp.names))
	for i, names := range sp.names {
		rows[i] = featureColumns(ix, names)
	}
	return rows
}

// superviseStage turns the train split's label matrix into training
// marginals: generative-model denoising by default, majority vote
// under the ablation, or the caller's explicit marginals (which
// bypass supervision entirely). covered reports, per train-candidate
// position, whether any LF labeled it — uncovered candidates carry no
// supervision signal and are excluded from training.
func superviseStage(opts Options, labels *labeling.Matrix) (marginals []float64, covered func(int) bool, metrics labeling.Metrics) {
	if opts.Marginals != nil {
		return opts.Marginals, func(int) bool { return true }, labeling.Metrics{}
	}
	metrics = labeling.ComputeMetrics(labels)
	if opts.MajorityVote {
		marginals = labeling.MajorityVote(labels)
	} else {
		gen := labeling.Fit(labels, labeling.FitOptions{})
		marginals = gen.Marginals(labels)
	}
	covered = func(i int) bool { return len(labels.RowLabels(i)) > 0 }
	return marginals, covered, metrics
}

// warmSource is a previous generation's trained state, used to
// warm-start the next generation's training: the model supplies the
// dense weights and embedding rows, the frozen index maps the new
// run's sparse-head columns back to the old run's.
type warmSource struct {
	model *model.Model
	index *features.Index
}

// warmFeats builds the new-column -> old-column map between two
// frozen feature indexes. Columns whose feature name the old index
// never admitted are absent (they keep their fresh initialization).
func warmFeats(newIx, oldIx *features.Index) map[int]int {
	out := make(map[int]int, newIx.Len())
	for newCol, name := range newIx.Names() {
		if oldCol, ok := oldIx.Lookup(name); ok {
			out[newCol] = oldCol
		}
	}
	return out
}

// trainStage constructs the selected model variant and trains it
// noise-aware on the covered examples, optionally warm-started from a
// previous generation (ix is the run's frozen index, needed to map
// sparse-head columns across generations).
func trainStage(task Task, opts Options, numFeatures int, trainEx []model.Example, warm *warmSource, ix *features.Index) (*model.Model, model.TrainStats) {
	arity := len(task.Args)
	var m *model.Model
	switch opts.Variant {
	case VariantFonduer:
		m = model.NewFonduer(arity, numFeatures, opts.Seed, trainEx)
	case VariantTextLSTM:
		m = model.NewTextBiLSTM(arity, opts.Seed, trainEx)
	case VariantHumanTuned:
		m = model.NewHumanTuned(numFeatures, opts.Seed)
	case VariantSRV:
		m = model.NewSRV(numFeatures, opts.Seed)
	case VariantDocRNN:
		maxTokens := opts.MaxDocTokens
		if maxTokens <= 0 {
			maxTokens = 400
		}
		m = model.NewDocRNN(opts.Seed, trainEx, maxTokens)
	case VariantMaxPool:
		m = model.NewMaxPoolText(arity, opts.Seed, trainEx)
	default:
		panic("core: unknown variant")
	}
	topts := model.TrainOptions{
		Epochs: opts.Epochs, LR: opts.LR, L2: opts.L2,
		Batch: opts.Batch, Workers: opts.Workers,
	}
	if warm != nil && warm.model != nil {
		topts.Warm = warm.model
		topts.WarmFeats = warmFeats(ix, warm.index)
	}
	stats := m.Train(trainEx, topts)
	return m, stats
}

// classifyStage thresholds the model's output marginals over the test
// examples and deduplicates the resulting document-scoped tuples.
// Scoring fans out over the worker pool into per-position slots;
// thresholding and first-wins dedup then run in index order, so the
// predicted list is the same at any worker count.
func classifyStage(m *model.Model, testEx []model.Example, threshold float64, workers int) []GoldTuple {
	probs := make([]float64, len(testEx))
	pool.Run(len(testEx), workers, func(i int) { probs[i] = m.PredictProb(testEx[i]) })
	return keepPositives(nil, map[string]bool{}, probs, threshold, func(i int) *candidates.Candidate { return testEx[i].Cand })
}

// keepPositives appends to predicted, in index order, the tuple of
// every candidate whose probability exceeds the threshold and whose
// key is not yet in seen (first wins) — the sequential half of bulk
// classification, which is what keeps the predicted list independent
// of how the scoring half was scheduled.
func keepPositives(predicted []GoldTuple, seen map[string]bool, probs []float64, threshold float64, cand func(i int) *candidates.Candidate) []GoldTuple {
	for i, p := range probs {
		if p > threshold {
			t := TupleFromCandidate(cand(i))
			if !seen[t.Key()] {
				seen[t.Key()] = true
				predicted = append(predicted, t)
			}
		}
	}
	return predicted
}

// stageArtifacts are the trained run's internals that outlive the
// Result: the frozen feature index the model's columns are numbered
// by and the trained model itself — a StoreView's generation state.
//
// spans is the run's stage timing (observability only): it rides in
// the artifacts — never in the Result — because Results must stay
// bit-comparable across batching orders and worker counts, while
// wall times are not.
type stageArtifacts struct {
	index *features.Index
	model *model.Model
	spans []obs.Span
}

// runStages composes Featurize-index-materialize, Supervise, Train
// and Classify over two staged splits. labels is the train split's
// label matrix (rows positional, matching train.cands); it may be nil
// when opts.Marginals bypasses supervision. testDocNames scopes the
// gold tuples for evaluation. warm, when non-nil, starts training from
// a previous generation's weights instead of the cold deterministic
// initialization; no other stage is affected. Every caller — Run,
// Store.RunSplit, StoreView.Retrain — shares this single code path,
// which is what makes served-epoch results structurally bit-identical
// to from-scratch Run results.
func runStages(task Task, opts Options, train, test stagedSplit, labels *labeling.Matrix, testDocNames map[string]bool, gold []GoldTuple, warm *warmSource) (Result, stageArtifacts) {
	res := Result{TrainCandidates: len(train.cands), TestCandidates: len(test.cands)}
	var spans []obs.Span

	// ---- Featurization (Phase 3a): frozen index from train counts,
	// then per-split materialization against it.
	t0 := time.Now()
	ix := indexStage(train, opts.MinFeatureCount)
	res.NumFeatures = ix.Len()
	spans = append(spans, obs.NewSpan("index", t0, len(train.cands), ix.Len(), 0))
	t0 = time.Now()
	trainRows := materializeStage(train, ix)
	testRows := materializeStage(test, ix)
	spans = append(spans, obs.NewSpan("materialize", t0, len(train.cands)+len(test.cands), len(trainRows)+len(testRows), 0))
	res.CacheStats = features.CacheStats{
		Hits:   train.stats.Hits + test.stats.Hits,
		Misses: train.stats.Misses + test.stats.Misses,
	}

	// ---- Supervision (Phase 3b).
	t0 = time.Now()
	marginals, covered, metrics := superviseStage(opts, labels)
	spans = append(spans, obs.NewSpan("supervise", t0, len(train.cands), len(marginals), 0))
	res.LFMetrics = metrics

	// ---- Build examples from the covered candidates. Positions are
	// the relation keys here: row i of every staged relation belongs
	// to split candidate i.
	trainEx := make([]model.Example, 0, len(train.cands))
	for i, c := range train.cands {
		if !covered(i) {
			continue
		}
		trainEx = append(trainEx, model.Example{Cand: c, SparseFeats: trainRows[i], Marginal: marginals[i]})
	}
	testEx := make([]model.Example, len(test.cands))
	for i, c := range test.cands {
		testEx[i] = model.Example{Cand: c, SparseFeats: testRows[i]}
	}

	// ---- Train the selected variant, then classify and evaluate.
	t0 = time.Now()
	m, trainStats := trainStage(task, opts, ix.Len(), trainEx, warm, ix)
	spans = append(spans, obs.NewSpan("train", t0, len(trainEx), trainStats.Epochs, pool.Workers(opts.Workers)))
	res.TrainStats = trainStats
	t0 = time.Now()
	res.Predicted = classifyStage(m, testEx, opts.Threshold, opts.Workers)
	spans = append(spans, obs.NewSpan("classify", t0, len(testEx), len(res.Predicted), 0))
	res.Quality = EvaluateTuples(res.Predicted, FilterGold(gold, testDocNames))
	return res, stageArtifacts{index: ix, model: m, spans: spans}
}
