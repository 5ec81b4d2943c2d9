package core

import (
	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/labeling"
)

// DevSession implements Fonduer's development mode (Section 3.3):
// users iteratively improve labeling functions through error analysis
// without rerunning candidate extraction or featurization.
//
// DevSession is a thin view over the same Store that backs production
// runs, so development and production share one state representation:
// documents are ingested once (extracted, featurized, and persisted
// as store relations), labeling-function edits re-materialize only
// the affected Labels column, and after each iteration the session
// reports the LF metrics (coverage, overlap, conflict) and denoised
// marginals the user inspects before the next iteration. A finalized
// session's store can run production mode directly via
// Store.RunSplit, or its LFs can feed a fresh Run call.
type DevSession struct {
	store *Store
	// sample maps session candidate order to gold labels when the user
	// supplies a labeled holdout for accuracy estimates.
	holdout map[int]bool
}

// NewDevSession ingests the development documents once (in parallel
// across all cores) and prepares an empty labeling state. Ingestion
// runs the full store pipeline — extraction *and* featurization, with
// every relation materialized — so the finalized session flows into
// production (Store.RunSplit, or Snapshot/OpenStore) with nothing
// recomputed; that is a deliberate trade of constructor latency for
// the shared dev/production state representation. Document names must
// be unique — the store keys its relations by name — and the error is
// AddDocuments'.
func NewDevSession(task Task, docs []*datamodel.Document) (*DevSession, error) {
	// A dev session starts with no labeling functions installed even
	// when the task carries some: the session's whole point is to
	// build them up interactively. The explicit empty (non-nil) LFs
	// override expresses that to the store.
	st := NewStore(task, Options{LFs: []labeling.LF{}})
	if err := st.AddDocuments(docs...); err != nil {
		st.Close()
		return nil, err
	}
	return &DevSession{store: st}, nil
}

// SessionFromStore wraps an existing store (e.g. one resumed with
// OpenStore) in the development-mode view. LF edits apply over the
// store's own Options.Workers.
func SessionFromStore(st *Store) *DevSession {
	return &DevSession{store: st}
}

// Store exposes the session's backing store.
func (s *DevSession) Store() *Store { return s.store }

// Candidates returns the session's extracted candidates.
func (s *DevSession) Candidates() []*candidates.Candidate { return s.store.cands }

// NumLFs returns the number of labeling functions currently installed.
func (s *DevSession) NumLFs() int { return s.store.NumLFs() }

// AddLF installs a labeling function and applies it to every candidate
// (one new Labels column — the fast-update path). It returns the LF's
// column index; the error is Store.AddLF's.
func (s *DevSession) AddLF(lf labeling.LF) (int, error) {
	return s.store.AddLF(lf)
}

// EditLF replaces the labeling function at col and re-applies it; only
// that column of the Labels relation is re-materialized.
func (s *DevSession) EditLF(col int, lf labeling.LF) error {
	return s.store.EditLF(col, lf)
}

// RemoveLF abstains the labeling function at col everywhere (columns
// are never renumbered mid-session).
func (s *DevSession) RemoveLF(col int) error {
	abstain := labeling.LF{Name: "removed", Fn: func(*candidates.Candidate) int { return 0 }}
	return s.EditLF(col, abstain)
}

// Metrics computes the current LF development metrics.
func (s *DevSession) Metrics() labeling.Metrics {
	return labeling.ComputeMetrics(s.store.LabelMatrix())
}

// Marginals fits the generative model to the current label matrix and
// returns the denoised per-candidate probabilities.
func (s *DevSession) Marginals() []float64 {
	m := s.store.LabelMatrix()
	gen := labeling.Fit(m, labeling.FitOptions{})
	return gen.Marginals(m)
}

// SetHoldout registers gold labels for a subset of candidates (by
// candidate ID); EstimateAccuracy scores the current marginals against
// it, the "small holdout set of labeled candidates" of Section 4.1.
func (s *DevSession) SetHoldout(gold map[int]bool) { s.holdout = gold }

// EstimateAccuracy returns the fraction of holdout candidates whose
// current marginal agrees with their gold label (0 when no holdout).
func (s *DevSession) EstimateAccuracy() float64 {
	if len(s.holdout) == 0 {
		return 0
	}
	marg := s.Marginals()
	agree := 0
	for id, truth := range s.holdout {
		if id >= 0 && id < len(marg) && (marg[id] > 0.5) == truth {
			agree++
		}
	}
	return float64(agree) / float64(len(s.holdout))
}

// Errors returns the holdout candidates the current marginals get
// wrong — the error-analysis view driving the next LF iteration.
func (s *DevSession) Errors() []*candidates.Candidate {
	marg := s.Marginals()
	cands := s.store.cands
	var out []*candidates.Candidate
	for id, truth := range s.holdout {
		if id >= 0 && id < len(marg) && (marg[id] > 0.5) != truth {
			out = append(out, cands[id])
		}
	}
	candidates.SortByKey(out)
	return out
}

// Finalize returns the session's labeling functions for the production
// run (Run with Options.LFs set, or a Task carrying them).
func (s *DevSession) Finalize() []labeling.LF {
	return s.store.LFs()
}
