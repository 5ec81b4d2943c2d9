package serve

import "repro/internal/obs"

// Traces returns the session's buffered publication traces, newest
// first: the /admin/traces payload, for tests that inspect the ring
// without HTTP.
func (s *Server) Traces() []obs.Trace { return s.traces.Snapshot() }
