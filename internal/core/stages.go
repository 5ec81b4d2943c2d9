package core

import (
	"math/bits"
	"time"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// The pipeline is decomposed into explicit stages over materialized
// per-candidate relations — the paper's Candidates, Features and Labels
// tables; feature counts are always summed from Features, never stored:
//
//	Extract   docs            -> Candidates, one list per document
//	Featurize Candidates      -> Features(cand, name), CacheStats per document
//	Label     Candidates      -> Labels votes -> label matrix
//	Index     Features        -> train-split counts -> frozen feature Index
//	Supervise Labels          -> marginals + coverage
//	Train     Features+Labels -> model
//	Classify  model+Features  -> predicted tuples + quality
//
// Each stage is written once, here, and every path composes the same
// functions: Run and RunWithCandidates over transient in-memory
// relations, Store.AddDocuments over the delta it keeps in the store
// (re-running only the stages a change invalidates), ad-hoc
// StoreView.ClassifyDocument, and the experiments through
// TrainExamples. Fonduer processes documents atomically (Appendix C):
// Extract and Featurize fan out one document per pool task and their
// per-document outputs are concatenated in corpus order, so every
// stage's output is a pure, per-document-deterministic function of its
// input relations — bit-identical no matter how the corpus was batched
// into invocations and no matter the worker count. That is what makes
// the store's confluence with a from-scratch Run structural rather
// than only tested.

// stagedSplit is one split's view of the staged relations: the
// candidates, each candidate's distinct features (the index-independent
// Features relation) as ids into dict, and the cache statistics of the
// split's featurization pass.
type stagedSplit struct {
	cands []*candidates.Candidate
	names [][]uint32
	dict  []string // id -> feature name
	stats features.CacheStats
}

// internRows turns one document's name rows into rows of ids in dict,
// cut from one buffer and each capped to its own ids: a name becomes a
// dense id the first time dict sees it, and the Features relation is
// held as those ids — four bytes a (candidate, feature) pair, and a
// name's bytes once however many candidates carry it. Only the
// goroutine that owns dict interns (a store's writer, past the commit
// point; a from-scratch run after its featurize workers have returned);
// everyone else reads dict.NamesView(), a capped prefix of the
// append-only id -> name list. Ids are process-private: whatever leaves
// the process — the frozen index's order, /features, snapshots, KB
// bytes — is names.
func internRows(dict *features.Index, rows [][]string) [][]uint32 {
	n := 0
	for _, names := range rows {
		n += len(names)
	}
	buf := make([]uint32, 0, n)
	out := make([][]uint32, len(rows))
	for k, names := range rows {
		first := len(buf)
		for _, name := range names {
			buf = append(buf, uint32(dict.ID(name)))
		}
		out[k] = buf[first:len(buf):len(buf)]
	}
	return out
}

// extractStage runs the Extract stage: one candidate list per
// document, in document order, IDs not yet assigned. It is the only
// place a candidate extractor is built from a task.
func extractStage(task Task, docs []*datamodel.Document, scope candidates.Scope, throttle bool, workers int) [][]*candidates.Candidate {
	perDoc := make([][]*candidates.Candidate, len(docs))
	pool.Run(len(docs), workers, func(i int) {
		ext := &candidates.Extractor{Args: task.Args, Scope: scope}
		if throttle {
			ext.Throttlers = task.Throttlers
		}
		perDoc[i] = ext.Extract(docs[i])
	})
	return perDoc
}

// numberCandidates concatenates per-document candidate lists in
// document order, assigning dense IDs from first.
func numberCandidates(perDoc [][]*candidates.Candidate, first int) []*candidates.Candidate {
	var out []*candidates.Candidate
	for _, cs := range perDoc {
		for _, c := range cs {
			c.ID = first + len(out)
			out = append(out, c)
		}
	}
	return out
}

// ParallelExtract runs candidate extraction over the corpus with up to
// workers goroutines (<=0 means GOMAXPROCS). The result is identical
// to a sequential ExtractAll: candidates in document order with dense
// IDs.
func ParallelExtract(task Task, docs []*datamodel.Document, scope candidates.Scope, throttle bool, workers int) []*candidates.Candidate {
	return numberCandidates(extractStage(task, docs, scope, throttle, workers), 0)
}

// shardByDoc splits a candidate list (in corpus order) back into its
// contiguous per-document lists — the inverse of numberCandidates for
// callers that hold a flat list.
func shardByDoc(cands []*candidates.Candidate) [][]*candidates.Candidate {
	var shards [][]*candidates.Candidate
	start := 0
	for i := 1; i <= len(cands); i++ {
		if i == len(cands) || cands[i].Doc() != cands[i-1].Doc() {
			shards = append(shards, cands[start:i])
			start = i
		}
	}
	return shards
}

// extractorFactory builds the per-document feature-extractor
// constructor for the run's options: ablated modalities and the SRV
// variant's HTML-only feature space. The mention cache is always on.
func extractorFactory(opts Options) func() *features.Extractor {
	disabled := opts.DisabledModalities
	if opts.Variant == VariantSRV {
		// SRV learns from HTML features alone: structural + textual.
		disabled = append(append([]features.Modality{}, disabled...), features.Tabular, features.Visual)
	}
	return func() *features.Extractor {
		fx := features.NewExtractor()
		for _, m := range disabled {
			fx.Disabled[m] = true
		}
		return fx
	}
}

// distinctFeatures returns the candidate's feature names, first
// occurrence only, in emission order. Distinctness is what both
// downstream consumers want: the count stage counts candidates per
// feature, and the indicator matrix is {0,1}-valued. seen is the caller's
// scratch set, cleared here: one map serves a document's candidates.
func distinctFeatures(fx *features.Extractor, c *candidates.Candidate, seen map[string]bool) []string {
	clear(seen)
	fs := fx.Featurize(c)
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		if !seen[f.Name] {
			seen[f.Name] = true
			out = append(out, f.Name)
		}
	}
	return out
}

// docFeatures is one document's output of the Featurize stage: each
// candidate's distinct feature names (aligned with the document's
// candidate list) and the document's mention-cache statistics.
type docFeatures struct {
	names [][]string
	stats features.CacheStats
}

// featurizeStage runs the Featurize stage over per-document candidate
// lists: one extractor (and therefore one mention cache, which flushes
// per document anyway) per document. A document's result does not
// depend on which other documents are in the batch, which is what
// makes incremental ingestion equivalent to a from-scratch run.
func featurizeStage(newFx func() *features.Extractor, perDoc [][]*candidates.Candidate, workers int) []docFeatures {
	out := make([]docFeatures, len(perDoc))
	pool.Run(len(perDoc), workers, func(i int) {
		fx := newFx()
		df := docFeatures{names: make([][]string, len(perDoc[i]))}
		seen := map[string]bool{}
		for k, c := range perDoc[i] {
			df.names[k] = distinctFeatures(fx, c, seen)
		}
		df.stats = fx.Stats()
		out[i] = df
	})
	return out
}

// featurizeSplit is featurizeStage for a flat candidate list, the
// per-document results concatenated back in list order and interned
// into the split's own dictionary.
func featurizeSplit(newFx func() *features.Extractor, cands []*candidates.Candidate, workers int) stagedSplit {
	sp := stagedSplit{cands: cands, names: make([][]uint32, 0, len(cands))}
	dict := features.NewIndex()
	for _, df := range featurizeStage(newFx, shardByDoc(cands), workers) {
		sp.names = append(sp.names, internRows(dict, df.names)...)
		sp.stats.Hits += df.stats.Hits
		sp.stats.Misses += df.stats.Misses
	}
	sp.dict = dict.NamesView()
	return sp
}

// labelStage applies the session's labeling functions to a candidate
// list and returns the Labels relation's vote rows as the label matrix
// (rows positional, matching cands) — nil when explicit Options.Marginals
// bypass supervision. opts.LFs, when non-nil, overrides the task's.
func labelStage(task Task, opts Options, cands []*candidates.Candidate) *labeling.Matrix {
	if opts.Marginals != nil {
		return nil
	}
	lfs := task.LFs
	if opts.LFs != nil {
		lfs = opts.LFs
	}
	return labeling.ParallelApply(lfs, cands, opts.Workers)
}

// indexStage builds the frozen feature index from the train split's
// feature counts — the Features -> counts -> Index step. Counts are the
// number of train candidates each feature fires on; admission applies
// the MinFeatureCount floor in sorted-name order, so the index never
// depends on map iteration or batch order.
func indexStage(train stagedSplit, minCount int) *features.Index {
	counts := make([]int, len(train.dict))
	for _, ids := range train.names {
		for _, id := range ids {
			counts[id]++
		}
	}
	admitted := map[string]int{}
	for id, n := range counts {
		if n >= minCount {
			admitted[train.dict[id]] = n
		}
	}
	return features.IndexFromCounts(admitted, minCount)
}

// indexColumns maps a whole dictionary through a frozen index: element
// id is the column of the name with that id, or -1 when the index does
// not admit it. It costs one probe of the index per distinct name, after
// which a candidate's row is a gather (materializeStage), not a probe
// per (candidate, feature) pair.
func indexColumns(ix *features.Index, dict []string) []int32 {
	colOf := make([]int32, len(dict))
	for id, name := range dict {
		colOf[id] = -1
		if col, ok := ix.Lookup(name); ok {
			colOf[id] = int32(col)
		}
	}
	return colOf
}

// materializeStage maps each candidate's feature ids through
// indexColumns' vector: one row of the numeric Features matrix the model
// consumes per candidate, its admitted columns in ascending order. A
// candidate's feature ids are distinct and so are the dictionary's
// names, so its columns are a set: they are marked in a bitset over the
// index's columns and read back in order, which costs less than sorting
// them.
func materializeStage(sp stagedSplit, ix *features.Index) [][]int {
	colOf := indexColumns(ix, sp.dict)
	marked := make([]uint64, (ix.Len()+63)/64)
	rows := make([][]int, len(sp.names))
	for i, ids := range sp.names {
		n := 0
		for _, id := range ids {
			if col := colOf[id]; col >= 0 {
				marked[col>>6] |= 1 << (col & 63)
				n++
			}
		}
		row := make([]int, 0, n)
		for w := 0; w < len(marked) && len(row) < n; w++ {
			for word := marked[w]; word != 0; word &= word - 1 {
				row = append(row, w<<6|bits.TrailingZeros64(word))
			}
			marked[w] = 0
		}
		rows[i] = row
	}
	return rows
}

// superviseStage turns the train split's label matrix into training
// marginals: generative-model denoising, or the caller's explicit
// marginals (which bypass supervision entirely). covered reports, per
// train-candidate position, whether any LF labeled it — uncovered
// candidates carry no supervision signal and are excluded from
// training.
func superviseStage(opts Options, labels *labeling.Matrix) (marginals []float64, covered func(int) bool, metrics labeling.Metrics) {
	if opts.Marginals != nil {
		return opts.Marginals, func(int) bool { return true }, labeling.Metrics{}
	}
	metrics = labeling.ComputeMetrics(labels)
	marginals = labeling.Fit(labels, labeling.FitOptions{}).Marginals(labels)
	return marginals, labels.Covered, metrics
}

// coveredExamples builds the Train stage's input from the covered
// candidates. Positions are the relation keys here: row i of every
// staged relation belongs to split candidate i.
func coveredExamples(cands []*candidates.Candidate, rows [][]int, marginals []float64, covered func(int) bool) []model.Example {
	exs := make([]model.Example, 0, len(cands))
	for i, c := range cands {
		if covered(i) {
			exs = append(exs, model.Example{Cand: c, SparseFeats: rows[i], Marginal: marginals[i]})
		}
	}
	return exs
}

// TrainExamples is the pipeline's front half — everything before Train
// — over one corpus: extract, featurize, freeze the index from the
// corpus' own feature counts, label, denoise, keep the covered
// candidates. It returns the frozen feature-space size and exactly the
// examples Run(task, docs, ...) would train on, so studies and
// benchmarks that isolate training measure the pipeline's own
// workload.
func TrainExamples(task Task, docs []*datamodel.Document, opts Options) (numFeatures int, exs []model.Example) {
	opts.defaults()
	cands := ParallelExtract(task, docs, opts.Scope, !opts.NoThrottlers, opts.Workers)
	train := featurizeSplit(extractorFactory(opts), cands, opts.Workers)
	ix := indexStage(train, opts.MinFeatureCount)
	marginals, covered, _ := superviseStage(opts, labelStage(task, opts, cands))
	return ix.Len(), coveredExamples(cands, materializeStage(train, ix), marginals, covered)
}

// trainStage constructs the selected model variant and trains it
// noise-aware on the covered examples from its deterministic cold
// initialization. Adam runs at learning rate 0.02 with weight decay
// 1e-4.
func trainStage(task Task, opts Options, numFeatures int, trainEx []model.Example) (*model.Model, model.TrainStats) {
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
		m = model.NewDocRNN(opts.Seed, trainEx, 0)
	case VariantMaxPool:
		m = model.NewMaxPoolText(arity, opts.Seed, trainEx)
	default:
		// Unreachable from input or I/O: Variant is an enum set in Go
		// source (Options literals), never parsed from a request or a file.
		panic("core: unknown variant")
	}
	stats := m.Train(trainEx, model.TrainOptions{Epochs: opts.Epochs, LR: 0.02, L2: 1e-4})
	return m, stats
}

// classifyStage thresholds the model's output marginals over the test
// examples and deduplicates the resulting document-scoped tuples.
// Scoring is scoreByDoc; thresholding and first-wins dedup then run in
// index order, so the predicted list is the same at any worker count.
func classifyStage(m *model.Model, testEx []model.Example, threshold float64, workers int) []GoldTuple {
	probs := scoreByDoc(m, testEx, workers)
	return keepPositives(nil, map[string]bool{}, probs, threshold, func(i int) *candidates.Candidate { return testEx[i].Cand })
}

// scoreByDoc returns m's probability for every example, in example
// order — every scoring site's one path into the model. The examples
// are cut into runs from one document (a corpus lists its candidates
// document by document) and each run is one PredictProbs call, which
// encodes each distinct mention context of the run once. Runs fan out
// over up to workers goroutines into per-position slots, and each
// probability is bit-identical to m.PredictProb's, so the result is the
// same at any worker count.
func scoreByDoc(m *model.Model, exs []model.Example, workers int) []float64 {
	starts := []int{0}
	for i := 1; i < len(exs); i++ {
		if exs[i].Cand.Doc() != exs[i-1].Cand.Doc() {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(exs))
	probs := make([]float64, len(exs))
	pool.Run(len(starts)-1, workers, func(k int) {
		lo, hi := starts[k], starts[k+1]
		m.PredictProbs(exs[lo:hi], probs[lo:hi])
	})
	return probs
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
// gold tuples for evaluation. Every caller — Run, Store.RunSplit,
// StoreView.Retrain — shares this single code path and trains from the
// same cold initialization, which is what makes every trained
// generation structurally bit-identical to a from-scratch Run result.
func runStages(task Task, opts Options, train, test stagedSplit, labels *labeling.Matrix, testDocNames map[string]bool, gold []GoldTuple) (Result, stageArtifacts) {
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

	trainEx := coveredExamples(train.cands, trainRows, marginals, covered)
	testEx := make([]model.Example, len(test.cands))
	for i, c := range test.cands {
		testEx[i] = model.Example{Cand: c, SparseFeats: testRows[i]}
	}

	// ---- Train the selected variant, then classify and evaluate.
	t0 = time.Now()
	m, trainStats := trainStage(task, opts, ix.Len(), trainEx)
	spans = append(spans, obs.NewSpan("train", t0, len(trainEx), trainStats.Epochs, pool.Workers(opts.Workers)))
	res.TrainStats = trainStats
	t0 = time.Now()
	res.Predicted = classifyStage(m, testEx, opts.threshold(), opts.Workers)
	spans = append(spans, obs.NewSpan("classify", t0, len(testEx), len(res.Predicted), 0))
	res.Quality = EvaluateTuples(res.Predicted, FilterGold(gold, testDocNames))
	return res, stageArtifacts{index: ix, model: m, spans: spans}
}
