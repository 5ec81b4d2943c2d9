package core

import (
	"fmt"
	"maps"

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
// goroutine, then published through an atomic pointer; any number of
// reader goroutines may use every StoreView method concurrently, with
// no locks, and never observe a half-applied ingest.
//
// A view is the product of two orthogonal steps, each written once in
// view_build.go: epoch state (Store.capture — a function of the
// corpus) and generation state (modelState — a function of the model,
// either trained here or inherited). Immutability is by construction:
// mutable store state (votes, relation row counts) is deep-copied at
// capture, structurally immutable state (ingested documents,
// candidates, per-candidate feature-id rows, and prefixes of the two
// append-only name lists — the feature dictionary and the admitted
// session features) is shared, and every step returns a new view
// instead of touching its receiver.
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

	// names are the per-candidate distinct feature rows, aligned with
	// cands (shared immutable store rows — never mutated after
	// ingestion), as ids into featNames: the store's feature dictionary
	// as of this epoch, a capped prefix of its append-only id -> name
	// list (the view never sees the writer's name -> id map). splitStats
	// are the whole-corpus featurization cache statistics. Captured so
	// training and classification run as pure functions of the view, off
	// the store.
	names      [][]uint32
	featNames  []string
	splitStats features.CacheStats

	// marginals are the denoised per-candidate marginals: supervision
	// is epoch state, recomputed over the full label matrix at capture.
	marginals []float64

	// Session feature-space statistics at this epoch; sessionFeatures
	// are the admitted feature names in column order, a capped prefix of
	// the live session index's append-only name list.
	sessionFeatures  []string
	pendingFeatures  int
	distinctFeatures int

	// tableRows are the store relations' row counts (session metadata);
	// storage the store's storage-engine counters at capture — the
	// operator-facing /meta section.
	tableRows map[string]int
	storage   StorageStats

	modelState

	// What epoch and generation state determine together: the
	// production Result (bit-identical to a from-scratch Run over the
	// epoch's corpus when the model was trained cold at this epoch) and
	// the classified knowledge base, materialized against the task
	// schema.
	result Result
	kb     *kbase.Table

	// spans is the stage timing of the calls that built this view —
	// observability only, never part of the Result.
	spans []obs.Span
}

// modelState is a view's generation state: the model generation it
// serves, the epoch whose corpus trained that generation, the session
// feature-space size at training time (the base against which feature
// drift is measured to trigger a retrain), the trained model and the
// frozen feature index its columns are numbered by. An (epoch,
// generation) pair fully determines the served bytes: the corpus is a
// function of the epoch, the model a function of the generation, and
// classification a pure per-candidate function of both.
type modelState struct {
	generation             uint64
	modelEpoch             uint64
	trainedSessionFeatures int
	model                  *model.Model
	runIndex               *features.Index
}

// StageSpans returns the stage timing of the call that built this view
// (read-only): capture and classification for a delta view, the staged
// run for a retrained one, both for Store.View; always ending in the KB
// materialization. Observability data only — never compared across
// runs, unlike the Result.
func (v *StoreView) StageSpans() []obs.Span { return v.spans }

// StorageStats returns the store's storage-engine counters as of this
// epoch's capture (backend kind, document count, disk pages, page-cache
// hit rate).
func (v *StoreView) StorageStats() StorageStats { return v.storage }

// Epoch returns the store mutation epoch the view was built at.
func (v *StoreView) Epoch() uint64 { return v.epoch }

// Generation returns the model generation this view serves. Together
// with the epoch it fully determines the served bytes (see Retrain).
func (v *StoreView) Generation() uint64 { return v.generation }

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

// Result returns the view's production Result. When the model was
// trained cold at this epoch (Store.View, a cold Retrain) it is
// bit-identical to a from-scratch Run over the epoch's corpus with
// train = test = the full document list. Read-only.
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
func (v *StoreView) TableRows() map[string]int { return maps.Clone(v.tableRows) }

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
// document — the Extract and Featurize stages of stages.go over a
// one-document corpus — without mutating anything: both extractors are
// private to the call, the document's feature names are looked up in
// the frozen index and never interned, and the model's forward pass is
// read-only. Safe to call from any number of goroutines
// concurrently, on the same or different views.
func (v *StoreView) ClassifyDocument(doc *datamodel.Document) (DocClassification, error) {
	if doc == nil {
		return DocClassification{}, fmt.Errorf("core: nil document")
	}
	perDoc := extractStage(v.task, []*datamodel.Document{doc}, v.opts.Scope, !v.opts.NoThrottlers, 1)
	names := featurizeStage(extractorFactory(v.opts), perDoc, 1)[0].names
	exs := make([]model.Example, len(perDoc[0]))
	for i, c := range perDoc[0] {
		exs[i] = model.Example{Cand: c, SparseFeats: featureColumns(v.runIndex, names[i])}
	}
	var out DocClassification
	seen := map[string]bool{}
	for i, p := range scoreByDoc(v.model, exs, 1) {
		c := exs[i].Cand
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
