package core

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/candidates"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/obs"
)

// How a StoreView is built: two orthogonal steps, each written once.
//
//   - Epoch state — Store.capture: everything that is a function of the
//     corpus. The store's relations are append-only element by element
//     (AddLF and EditLF rebuild the vote rows rather than write them), so
//     a capture is capped prefixes of them, shared in place, plus the
//     supervision over the epoch's full label matrix. It copies no
//     per-document or per-candidate slice, whatever view came before.
//   - Generation state — StoreView.withModel: everything that is a
//     function of the model. It comes from one of two places: train
//     (Retrain) or serve under an existing model
//     (classifyFrom: only the candidates past an offset are scored).
//
// The four exported builders are compositions of those:
//
//	Store.View       capture,  then a Retrain
//	Store.ViewDelta  capture,  then classifyFrom(prev, len(prev.cands))
//	Retrain          train on the view's corpus
//	AdoptModel       classifyFrom(other, 0)
//
// The determinism contract: a view's served bytes are a pure function
// of its (epoch, generation) pair. Classification is per-candidate
// pure and KB dedup is first-wins in candidate-ID order, so delta
// classification over a prefix-identical predecessor is bit-identical
// to reclassifying the whole corpus (AdoptModel) at the same pair —
// proven by TestViewDeltaMatchesAdopt and the serving layer's replay
// suite — and a Retrain is the staged run of Store.RunSplit with
// train = test = the full corpus, hence bit-identical to a from-scratch
// Run (TestStoreViewEquivalence, TestViewRetrainMatchesView). Votes,
// marginals and LF names are epoch state, so a delta after AddLF or
// EditLF carries the store's current ones (TestViewDeltaAfterLFChange).

// capture builds the epoch state of a view of the store at its current
// epoch: capped prefixes of the store's document names, candidates,
// feature rows and vote rows, which no later mutation writes, and the
// label model's marginals over those votes. hydrate names the span that
// times the prefix capture; it counts the documents and candidates past
// seenDocs and seenCands, what the caller already held (zero for a full
// view).
//
// capture reads the store, so it takes the same writer-goroutine-only
// guard as a mutation: call it from the thread that mutates the store,
// never concurrently with one.
func (s *Store) capture(hydrate string, seenDocs, seenCands int) *StoreView {
	s.beginMutation()
	defer s.endMutation(false)

	// The view shares the store's candidate objects (immutable after
	// ingestion) and, through them, pins every parsed document.
	t0 := time.Now()
	nd, nc := len(s.docNames), len(s.cands)
	v := &StoreView{
		store:            s,
		epoch:            s.epoch,
		relation:         s.task.Relation,
		task:             s.task,
		opts:             s.opts,
		docNames:         s.docNames[:nd:nd],
		cands:            s.cands[:nc:nc],
		votes:            s.votes[:nc:nc],
		names:            s.names[:nc:nc],
		featNames:        s.feats.NamesView(),
		lfNames:          make([]string, len(s.lfs)),
		splitStats:       s.stats,
		sessionFeatures:  s.dict.NamesView(),
		pendingFeatures:  s.feats.Len() - s.dict.Len(),
		distinctFeatures: s.feats.Len(),
		tableRows:        maps.Clone(s.rows),
	}
	for i, lf := range s.lfs {
		v.lfNames[i] = lf.Name
	}
	hydrateSpan := obs.NewSpan(hydrate, t0, nd-seenDocs, nc-seenCands, 0)

	// Supervision is epoch state, not generation state: denoise over the
	// full label matrix, exactly as a from-scratch run at this epoch
	// would.
	t0 = time.Now()
	v.marginals, _, v.result.LFMetrics = superviseStage(s.opts, v.labels())
	v.spans = []obs.Span{hydrateSpan, obs.NewSpan("supervise", t0, nc, len(v.marginals), 0)}

	// The corpus-determined part of the Result: the production run trains
	// and classifies the whole corpus, so both splits are all of it.
	v.result.TrainCandidates = nc
	v.result.TestCandidates = nc
	v.result.CacheStats = features.CacheStats{Hits: 2 * s.stats.Hits, Misses: 2 * s.stats.Misses}
	v.storage = s.StorageStats()
	return v
}

// labels is the label matrix over the view's votes — nil when explicit
// Options.Marginals bypass supervision.
func (v *StoreView) labels() *labeling.Matrix {
	if v.opts.Marginals != nil {
		return nil
	}
	return &labeling.Matrix{Votes: v.votes, NumLFs: len(v.lfNames)}
}

// withModel returns v under generation state g: res becomes its Result
// and res.Predicted its knowledge base. This is the one place a view's
// generation (and model, and run index) is assigned. The KB table is
// always in-memory: a published epoch must stay readable lock-free
// after the store moves on.
func (v *StoreView) withModel(g modelState, res Result, spans []obs.Span) (*StoreView, error) {
	t0 := time.Now()
	schema := v.task.Schema
	b := kbase.NewBatch(schema, len(res.Predicted))
	for _, t := range res.Predicted {
		if len(t.Values) != schema.Arity() {
			return nil, fmt.Errorf("core: materializing KB for view: %s has arity %d, got %d values", schema.Name, schema.Arity(), len(t.Values))
		}
		for c, val := range t.Values {
			b.AppendString(c, val)
		}
	}
	kb := kbase.NewTable(schema)
	if _, err := kb.InsertBatch(b); err != nil {
		return nil, fmt.Errorf("core: materializing KB for view: %w", err)
	}
	nv := *v
	nv.modelState = g
	nv.result = res
	nv.kb = kb
	nv.spans = append(spans[:len(spans):len(spans)], obs.NewSpan("materializeKB", t0, len(res.Predicted), kb.Len(), 0))
	return &nv, nil
}

// classifyFrom is generation state without training: v's corpus served
// under src's model. The candidates from position `from` on are scored
// — scoreByDoc on up to `workers` goroutines, then keepPositives in
// index order, as classifyStage does — and appended to
// the tuples src predicted for the candidates before `from`, which must
// be exactly v.cands[:from]. A tuple's key starts with its document and
// the candidates past `from` belong to other documents than the ones
// before it, so no earlier tuple can collide with a new one and the
// seen-set starts empty; src's list itself is carried forward, copied
// only if a positive is appended. The returned Result keeps v's epoch
// fields and a zero TrainStats: nothing was trained.
func (v *StoreView) classifyFrom(src *StoreView, from, workers int, gold []GoldTuple) Result {
	var prefix []GoldTuple
	if from > 0 {
		prefix = src.result.Predicted[:len(src.result.Predicted):len(src.result.Predicted)]
	}
	rows := materializeStage(stagedSplit{names: v.names[from:], dict: v.featNames}, src.runIndex)
	exs := make([]model.Example, len(rows))
	for k, row := range rows {
		exs[k] = model.Example{Cand: v.cands[from+k], SparseFeats: row}
	}
	probs := scoreByDoc(src.model, exs, workers)
	res := v.result
	res.Predicted = keepPositives(prefix, map[string]bool{}, probs, v.opts.threshold(), func(k int) *candidates.Candidate { return v.cands[from+k] })
	res.NumFeatures = src.runIndex.Len()
	res.TrainStats = model.TrainStats{}
	// Without gold (the server's case) there is nothing to count, and
	// EvaluateTuples would return the zero PRF after keying every
	// predicted tuple.
	res.Quality = PRF{}
	if len(gold) > 0 {
		docs := make(map[string]bool, len(v.docNames))
		for _, n := range v.docNames {
			docs[n] = true
		}
		res.Quality = EvaluateTuples(res.Predicted, FilterGold(gold, docs))
	}
	return res
}

// View builds an immutable snapshot of the store at its current epoch
// with a model trained on it: capture everything, then train cold on
// the whole ingested corpus and classify the whole corpus. gold, when
// non-nil, scopes the Result's quality evaluation exactly as in
// RunSplit. Writer-goroutine-only, like capture.
func (s *Store) View(gold []GoldTuple) (*StoreView, error) {
	v := s.capture("hydrate", 0, 0)
	nv, err := v.Retrain(RetrainConfig{Gold: gold})
	if err != nil {
		return nil, err
	}
	nv.spans = append(v.spans, nv.spans...)
	return nv, nil
}

// ViewDelta builds the snapshot of the store at its current epoch
// WITHOUT retraining: the new documents since prev are classified
// under prev's model generation and appended to prev's predictions. The
// resulting view serves epoch s.Epoch() at generation
// prev.Generation(), and its KB is bit-identical to reclassifying the
// whole corpus under that generation. No training happens, so ingest
// latency is decoupled from model cost. Its votes, marginals and LF
// names are the store's current ones, whatever labeling functions were
// added or edited since prev.
//
// Writer-goroutine-only, like capture. prev must be a view of this
// store: the store only appends documents and candidates, so prev's are
// a prefix of the current epoch's.
func (s *Store) ViewDelta(prev *StoreView, gold []GoldTuple) (*StoreView, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: ViewDelta requires a previous view")
	}
	if prev.store != s {
		return nil, fmt.Errorf("core: ViewDelta from a view of another store")
	}
	v := s.capture("hydrateDelta", prev.NumDocs(), len(prev.cands))
	// A writer-path delta is a handful of candidates: score them inline.
	t0 := time.Now()
	res := v.classifyFrom(prev, len(prev.cands), 1, gold)
	span := obs.NewSpan("deltaClassify", t0, len(v.cands)-len(prev.cands), len(res.Predicted)-len(prev.result.Predicted), 0)
	return v.withModel(prev.modelState, res, append(v.spans, span))
}

// RetrainConfig configures StoreView.Retrain.
type RetrainConfig struct {
	// Gold scopes the result's quality evaluation (as in RunSplit).
	Gold []GoldTuple
	// Generation numbers the produced view's model generation.
	Generation uint64
	// WarmFrom is ignored: every generation trains from the cold
	// initialization, so it is bit-identical to a from-scratch run over
	// the view's corpus.
	//
	// Deprecated: kept only so existing callers compile; it is to be
	// deleted.
	WarmFrom *StoreView
}

// Retrain trains a new model generation over this view's corpus and
// returns a view serving the same epoch under the new generation. It
// is a pure function of the view (plus cfg): candidates, feature rows
// with their dictionary, and votes were captured, so Retrain never touches the Store and
// is safe to run on a background goroutine while the writer keeps
// publishing delta epochs.
//
// The staged run is the same code path as Store.RunSplit with train =
// test = the full corpus, fed from the same feature rows
// (TestViewRetrainMatchesView pins it bitwise against RunSplit).
func (v *StoreView) Retrain(cfg RetrainConfig) (*StoreView, error) {
	sp := stagedSplit{cands: v.cands, names: v.names, dict: v.featNames, stats: v.splitStats}
	testDocs := map[string]bool{}
	for _, n := range v.docNames {
		testDocs[n] = true
	}
	res, art := runStages(v.task, v.opts, sp, sp, v.labels(), testDocs, cfg.Gold)
	return v.withModel(modelState{
		generation:             cfg.Generation,
		modelEpoch:             v.epoch,
		trainedSessionFeatures: len(v.sessionFeatures),
		model:                  art.model,
		runIndex:               art.index,
	}, res, art.spans)
}

// AdoptModel re-serves this view's corpus under other's model
// generation: every candidate is reclassified with other's model and
// frozen index on the worker pool, rebuilding the KB from scratch
// (first-wins dedup in candidate-ID order — the canonical
// classification of this corpus under that generation). Epoch state
// stays this view's; generation state becomes other's.
//
// Pure view-state function, used by the serving writer to catch a
// freshly trained generation up to delta epochs published while it
// trained — and by the equivalence tests as the from-scratch
// definition delta chains must match.
func (v *StoreView) AdoptModel(other *StoreView, gold []GoldTuple) (*StoreView, error) {
	if other == nil {
		return nil, fmt.Errorf("core: AdoptModel requires a trained view")
	}
	if other.relation != v.relation {
		return nil, fmt.Errorf("core: AdoptModel across relations (%q vs %q)", other.relation, v.relation)
	}
	t0 := time.Now()
	res := v.classifyFrom(other, 0, v.opts.Workers, gold)
	// Carry the training stats of the adopted generation: the publish
	// that installs it is the one that reports its training cost.
	res.TrainStats = other.result.TrainStats
	return v.withModel(other.modelState, res, []obs.Span{obs.NewSpan("classify", t0, len(v.cands), len(res.Predicted), 0)})
}
