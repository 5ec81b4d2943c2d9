package obs

import (
	"sync"
	"time"
)

// Pipeline stage tracing. Every publish of a serving epoch (the
// initial build, each ingest, each retrain) records a Trace: a span
// tree of the staged pipeline with per-stage wall time, row counts
// and worker fan-out. Traces live in a bounded per-tenant ring
// (TraceRing) and are surfaced read-only through /meta's trace
// section and GET /admin/traces — the ring is written by the single
// writer goroutine and snapshotted under a short mutex, so tracing
// never touches the lock-free read path.

// Span is one timed pipeline stage. Stage names come from a fixed
// enum (extract, featurize, supervise, merge from an ingest;
// hydrate, hydrateDelta, deltaClassify from a view capture; index,
// materialize, train, classify from a training run; materializeKB), so
// the per-stage metrics they feed stay fixed-cardinality.
type Span struct {
	// Name is the stage name.
	Name string `json:"name"`
	// Start is the stage's wall-clock start time.
	Start time.Time `json:"start"`
	// DurationMs is the stage's wall time in milliseconds.
	DurationMs float64 `json:"durationMs"`
	// RowsIn / RowsOut count the stage's input and output rows
	// (documents, candidates, features — whatever the stage consumes
	// and produces).
	RowsIn  int `json:"rowsIn,omitempty"`
	RowsOut int `json:"rowsOut,omitempty"`
	// Workers is the stage's parallel fan-out (0 = inherited/serial).
	Workers int `json:"workers,omitempty"`
	// Children are nested sub-stages.
	Children []Span `json:"children,omitempty"`
}

// NewSpan builds a completed span from its start time.
func NewSpan(name string, start time.Time, rowsIn, rowsOut, workers int) Span {
	return Span{
		Name:       name,
		Start:      start,
		DurationMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		RowsIn:     rowsIn,
		RowsOut:    rowsOut,
		Workers:    workers,
	}
}

// Trace is one recorded publication: the span tree of a staged
// pipeline run, tagged with what triggered it and the epoch it
// published.
type Trace struct {
	// Kind is the trigger: "initial" (server construction), "delta"
	// (online ingest publishing a delta epoch under the current
	// model), "train" (a retrain installing a new model generation),
	// or "snapshot" (persistence pass).
	Kind string `json:"kind"`
	// Epoch is the store epoch the run published (the pre-run epoch
	// for failed publications and snapshots; for "train" traces, the
	// epoch whose corpus the generation was trained on).
	Epoch uint64 `json:"epoch"`
	// Generation is the model generation the published view serves
	// (0 before any generation bookkeeping applies).
	Generation uint64 `json:"generation,omitempty"`
	// Start / DurationMs frame the whole run.
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	// Docs counts the documents in the triggering batch.
	Docs int `json:"docs,omitempty"`
	// Err records a failed publication (the trace is still kept:
	// failures are exactly when operators read traces).
	Err string `json:"error,omitempty"`
	// Spans is the stage tree.
	Spans []Span `json:"spans"`
}

// TraceRing is a bounded ring of the most recent traces. One writer
// (the tenant's writer goroutine) appends; any reader snapshots.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	full bool
}

// NewTraceRing creates a ring keeping the last n traces (n <= 0
// defaults to 32).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 32
	}
	return &TraceRing{buf: make([]Trace, n)}
}

// Add records a trace, evicting the oldest when full.
func (r *TraceRing) Add(t Trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered traces, newest first.
func (r *TraceRing) Snapshot() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[((r.next-1-i)+len(r.buf))%len(r.buf)])
	}
	return out
}
