package core

import "repro/internal/model"

// What the external test package needs to see of a store's in-memory
// Features relation, which has no exported accessor (ids are
// process-private), and of the scoring path.

// CandidateFeatures returns the feature names of candidate id in
// emission (seq) order.
func (s *Store) CandidateFeatures(id int) []string {
	names := make([]string, len(s.names[id]))
	for k, f := range s.names[id] {
		names[k] = s.feats.Name(int(f))
	}
	return names
}

// ForgetFeatures drops everything the store holds of the Features
// relation outside kbase — the id rows, the feature dictionary, the
// counts — and returns how many (candidate, feature) pairs that
// was. The store is unusable afterwards.
func (s *Store) ForgetFeatures() (pairs int) {
	for _, ids := range s.names {
		pairs += len(ids)
	}
	s.names, s.feats, s.counts = nil, nil, nil
	return pairs
}

// ScoreByDoc is scoreByDoc, every scoring site's path into the model.
func ScoreByDoc(m *model.Model, exs []model.Example, workers int) []float64 {
	return scoreByDoc(m, exs, workers)
}
