package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/obs"
)

// StoreView is an immutable snapshot of a Store at one epoch — the
// unit of publication in the serving layer's epoch-based copy-on-write
// concurrency model (internal/serve). A view is built on the writer
// goroutine by Store.View, then published through an atomic pointer;
// any number of reader goroutines may use every StoreView method
// concurrently, with no locks, and never observe a half-applied
// ingest.
//
// Immutability is by construction: mutable store state (votes,
// relation row counts) is deep-copied at build time, while structurally
// immutable state (ingested documents, candidates, per-candidate
// feature-name rows — never modified after ingestion — and the prefix
// of the append-only session feature-name list the epoch admits) is
// shared. The view's production artifacts —
// the trained model, its frozen feature index, the classified
// knowledge base — are computed at build time through the same staged
// code path as Store.RunSplit, so a served epoch's results are
// bit-identical to a from-scratch Run over the epoch's corpus.
//
// Accessors returning slices or maps either return private copies or
// the view's own immutable data; callers must treat every returned
// value as read-only.
type StoreView struct {
	epoch    uint64
	relation string
	task     Task
	opts     Options

	docNames []string
	cands    []*candidates.Candidate
	votes    [][]int8
	lfNames  []string

	// Two-phase publication bookkeeping (async serving): the model
	// generation this view serves, the epoch whose corpus that
	// generation was trained on, and the session feature-space size at
	// training time — the base against which feature-count drift is
	// measured to trigger a background retrain. A (epoch, generation)
	// pair fully determines the served bytes: the corpus is a function
	// of the epoch, the model a function of the generation, and
	// classification a pure per-candidate function of both.
	generation             uint64
	modelEpoch             uint64
	trainedSessionFeatures int

	// names are the per-candidate distinct feature-name rows, aligned
	// with cands (shared immutable store rows — never mutated after
	// ingestion), and splitStats the whole-corpus featurization cache
	// statistics. Captured so ViewDelta and Retrain can re-run staged
	// classification/training as pure functions of the view, off the
	// store.
	names      [][]string
	splitStats features.CacheStats

	// Production artifacts of this epoch: the whole-corpus run's
	// Result, trained model, frozen feature index, and denoised
	// per-candidate marginals.
	result    Result
	model     *model.Model
	runIndex  *features.Index
	marginals []float64

	// Session feature-space statistics at this epoch; sessionFeatures
	// are the admitted feature names in column order, a capped prefix of
	// the live session index's append-only name list.
	sessionFeatures  []string
	pendingFeatures  int
	distinctFeatures int

	// kb is this epoch's classified knowledge base, materialized
	// against the task schema; tableRows are the store relations' row
	// counts (session metadata).
	kb        *kbase.Table
	tableRows map[string]int

	// storage captures the store's backend/eviction counters at build
	// time — the operator-facing /meta section.
	storage StorageStats

	// spans is the view build's stage timing (hydrate, loadSplits, the
	// staged run, materializeKB) — observability only, never part of
	// the Result.
	spans []obs.Span
}

// View builds an immutable snapshot of the store at its current
// epoch: it deep-copies the mutable session state, then runs the
// production half of the pipeline (train on the whole ingested
// corpus, classify the whole corpus — RunSplit with both splits equal
// to the full document list) and captures the trained model, frozen
// index, marginals and materialized knowledge base. gold, when
// non-nil, scopes the Result's quality evaluation exactly as in
// RunSplit.
//
// View reads the entire store, so it takes the same
// writer-goroutine-only guard as a mutation: call it from the thread
// that mutates the store (the serving layer's writer goroutine does,
// immediately after each ingest), never concurrently with one.
func (s *Store) View(gold []GoldTuple) (*StoreView, error) {
	s.beginMutation()
	defer s.endMutation(false)

	names := s.DocNames()
	// The view needs every candidate's mention spans (serving and
	// ad-hoc classification read them), so evicted documents are
	// rehydrated here — through the LRU budget — into the snapshot.
	// The view keeps its own references: later store evictions cannot
	// reach into a published epoch.
	t0 := time.Now()
	cands, err := s.hydratedCandidates()
	if err != nil {
		return nil, err
	}
	hydrateSpan := obs.NewSpan("hydrate", t0, len(names), len(cands), 0)
	v := &StoreView{
		epoch:            s.epoch,
		relation:         s.task.Relation,
		task:             s.task,
		opts:             s.opts,
		docNames:         names,
		cands:            cands,
		names:            s.names[:len(cands):len(cands)],
		sessionFeatures:  s.dict.NamesView(),
		pendingFeatures:  len(s.pending),
		distinctFeatures: len(s.counts),
		tableRows:        map[string]int{},
		// This view's model is trained here, on this epoch's corpus.
		modelEpoch:             s.epoch,
		trainedSessionFeatures: s.dict.Len(),
	}
	for _, sd := range s.docs {
		v.splitStats.Hits += sd.stats.Hits
		v.splitStats.Misses += sd.stats.Misses
	}
	v.lfNames = make([]string, len(s.lfs))
	for i, lf := range s.lfs {
		v.lfNames[i] = lf.Name
	}
	// Votes rows are mutated in place by AddLF/EditLF, so the view
	// needs its own copies; candidates and documents are never
	// modified after ingestion and are shared.
	v.votes = make([][]int8, len(s.votes))
	for i, row := range s.votes {
		v.votes[i] = append([]int8(nil), row...)
	}
	for _, name := range s.db.Names() {
		v.tableRows[name] = s.db.Table(name).Len()
	}

	// The production run: train on every ingested document, classify
	// every ingested document (splits may overlap; see RunSplit). The
	// epoch's guard is already held, and runSplitArtifacts only reads.
	res, art, err := s.runSplitArtifacts(names, names, gold)
	if err != nil {
		return nil, err
	}
	v.result = res
	v.model = art.model
	v.runIndex = art.index
	v.marginals = art.marginals

	// Materialize this epoch's knowledge base against the task schema.
	t0 = time.Now()
	if v.kb, err = materializeKB(s.task.Schema, res.Predicted); err != nil {
		return nil, err
	}
	v.spans = append(append([]obs.Span{hydrateSpan}, art.spans...),
		obs.NewSpan("materializeKB", t0, len(res.Predicted), v.kb.Len(), 0))
	// Sampled last, so the epoch's counters include the view build's
	// own rehydration and page-cache traffic.
	v.storage = s.StorageStats()
	return v, nil
}

// StageSpans returns the view build's stage timing (read-only): the
// hydration pass, the staged production run, and the KB
// materialization. Observability data only — never compared across
// runs, unlike the Result.
func (v *StoreView) StageSpans() []obs.Span { return v.spans }

// StorageStats returns the store's backend/eviction counters as of
// this epoch's view build (backend kind, resident/peak/max document
// counts, disk pages, page-cache hit rate).
func (v *StoreView) StorageStats() StorageStats { return v.storage }

// Epoch returns the store mutation epoch the view was built at.
func (v *StoreView) Epoch() uint64 { return v.epoch }

// Generation returns the model generation this view serves. Together
// with the epoch it fully determines the served bytes (see Retrain).
func (v *StoreView) Generation() uint64 { return v.generation }

// SetGeneration stamps the view's model generation. Views are
// immutable after publication; the single writer goroutine stamps the
// generation between build and publish, never afterwards.
func (v *StoreView) SetGeneration(g uint64) { v.generation = g }

// ModelTrainedAtEpoch returns the epoch whose corpus trained this
// view's model. Equal to Epoch() right after a (re)train; smaller on
// delta epochs published under an older generation.
func (v *StoreView) ModelTrainedAtEpoch() uint64 { return v.modelEpoch }

// TrainedSessionFeatures returns the session feature-space size at
// the time this view's model was trained — the base against which
// feature drift is measured to trigger a background retrain.
func (v *StoreView) TrainedSessionFeatures() int { return v.trainedSessionFeatures }

// Relation returns the task's relation name.
func (v *StoreView) Relation() string { return v.relation }

// Schema returns the task's target KB schema.
func (v *StoreView) Schema() kbase.Schema { return v.task.Schema }

// DocNames returns a copy of the ingested document names in ingestion
// order.
func (v *StoreView) DocNames() []string {
	return append([]string(nil), v.docNames...)
}

// NumDocs returns the number of ingested documents.
func (v *StoreView) NumDocs() int { return len(v.docNames) }

// Candidates returns the epoch's candidates in global ID order. The
// candidates (and the documents they reference) are immutable shared
// state: read-only.
func (v *StoreView) Candidates() []*candidates.Candidate { return v.cands }

// Votes returns candidate i's labeling-function votes (read-only; one
// clamped vote per LF in LFNames order), or nil when out of range.
func (v *StoreView) Votes(i int) []int8 {
	if i < 0 || i >= len(v.votes) {
		return nil
	}
	return v.votes[i]
}

// LFNames returns a copy of the installed labeling-function names.
func (v *StoreView) LFNames() []string {
	return append([]string(nil), v.lfNames...)
}

// Result returns the epoch's production Result — bit-identical to a
// from-scratch Run over the epoch's corpus with train = test = the
// full document list. Read-only.
func (v *StoreView) Result() Result { return v.result }

// Marginals returns the denoised per-candidate marginals (indexed by
// global candidate ID). Read-only.
func (v *StoreView) Marginals() []float64 { return v.marginals }

// LFMetrics returns the epoch's labeling summary.
func (v *StoreView) LFMetrics() labeling.Metrics { return v.result.LFMetrics }

// KB returns the epoch's materialized knowledge base. The table is
// private to the view and never mutated after publication; use its
// cloning read paths (Tuples/Select/Page) to hand rows out.
func (v *StoreView) KB() *kbase.Table { return v.kb }

// FeatureStats summarizes the epoch's feature spaces: the run's
// frozen index (the model's columns), the session index (admitted
// features over the whole corpus), and the below-floor tail.
type FeatureStats struct {
	// RunFeatures is the trained model's feature-space size.
	RunFeatures int
	// SessionFeatures counts features admitted to the session index.
	SessionFeatures int
	// PendingFeatures counts distinct features still below the
	// MinFeatureCount admission floor.
	PendingFeatures int
	// DistinctFeatures counts all distinct feature names seen.
	DistinctFeatures int
}

// FeatureStats returns the epoch's feature-space statistics.
func (v *StoreView) FeatureStats() FeatureStats {
	return FeatureStats{
		RunFeatures:      v.runIndex.Len(),
		SessionFeatures:  len(v.sessionFeatures),
		PendingFeatures:  v.pendingFeatures,
		DistinctFeatures: v.distinctFeatures,
	}
}

// FeatureNames returns a copy of the session index's admitted feature
// names in column order.
func (v *StoreView) FeatureNames() []string {
	out := make([]string, len(v.sessionFeatures))
	copy(out, v.sessionFeatures)
	return out
}

// TableRows returns a copy of the store relations' row counts at this
// epoch.
func (v *StoreView) TableRows() map[string]int {
	out := make(map[string]int, len(v.tableRows))
	for k, n := range v.tableRows {
		out[k] = n
	}
	return out
}

// ClassifiedCandidate is one ad-hoc candidate's classification under
// a view's model.
type ClassifiedCandidate struct {
	// Values are the candidate's argument texts (original casing).
	Values []string
	// Marginal is the model's output probability.
	Marginal float64
	// Positive reports whether the marginal clears the session
	// threshold.
	Positive bool
}

// DocClassification is the result of classifying one uploaded
// document against a view's trained model.
type DocClassification struct {
	// Candidates are the document's extracted candidates with their
	// marginals, in extraction order.
	Candidates []ClassifiedCandidate
	// Tuples are the deduplicated positive tuples — what ingesting
	// the document would contribute to the KB under this epoch's
	// model.
	Tuples []GoldTuple
}

// ClassifyDocument runs candidate generation, featurization against
// the epoch's frozen index, and model classification over one
// document — without mutating anything: the extractor and feature
// extractor are private to the call, index lookups never allocate,
// and the model's forward pass is read-only. Safe to call from any
// number of goroutines concurrently, on the same or different views.
func (v *StoreView) ClassifyDocument(doc *datamodel.Document) (DocClassification, error) {
	if doc == nil {
		return DocClassification{}, fmt.Errorf("core: nil document")
	}
	ext := &candidates.Extractor{Args: v.task.Args, Scope: v.opts.Scope}
	if !v.opts.NoThrottlers {
		ext.Throttlers = v.task.Throttlers
	}
	cands := ext.Extract(doc)
	newFx := extractorFactory(v.opts)
	fx := newFx()
	var out DocClassification
	seen := map[string]bool{}
	for _, c := range cands {
		var cols []int
		for _, n := range distinctFeatures(fx, c) {
			if id, ok := v.runIndex.Lookup(n); ok {
				cols = append(cols, id)
			}
		}
		sort.Ints(cols)
		p := v.model.PredictProb(model.Example{Cand: c, SparseFeats: cols})
		cc := ClassifiedCandidate{Values: c.Values(), Marginal: p, Positive: p > v.opts.Threshold}
		out.Candidates = append(out.Candidates, cc)
		if cc.Positive {
			t := TupleFromCandidate(c)
			if !seen[t.Key()] {
				seen[t.Key()] = true
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	return out, nil
}
