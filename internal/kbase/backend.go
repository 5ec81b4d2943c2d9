package kbase

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Pred is one pushed-down predicate: an exact equality test between a
// column's *rendered* value (what fmt.Sprint produces — the contract
// the serving layer's /kb column filters already expose) and Want.
// Multiple predicates conjoin. Rendered-value semantics keep pushdown
// bit-identical to the legacy filter loop: a non-canonical probe like
// "007" or "+7" against an integer column matches nothing, exactly as
// string-comparing fmt.Sprint output did.
type Pred struct {
	// Col is the schema column index.
	Col int
	// Want is the rendered value to match exactly.
	Want string
}

// renderCell renders a stored cell exactly as fmt.Sprint does, with
// allocation-free fast paths for the three normalized storage types.
func renderCell(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// matcher is a compiled predicate conjunction. Compilation happens
// once per query (in Table, which hands the matcher to the backend) so
// the per-row check avoids fmt in the hot loop: string columns compare
// directly, integer columns compare parsed int64s (after proving the
// probe is the canonical rendering), and everything else falls back to
// the rendered comparison. The zero matcher is the empty conjunction:
// every row matches.
type matcher struct {
	// impossible marks a conjunction no row can satisfy (a probe that
	// is not the canonical rendering of any value of its column type).
	impossible bool
	preds      []compiledPred
}

type compiledPred struct {
	col    int
	want   string // rendered probe: what float and string cells and the index's hash compare against
	intVal int64  // parsed probe on an integer column
}

// compilePreds compiles a conjunction against the schema. The preds
// slice is not retained; predicates are evaluated in ascending column
// order so plan choice is deterministic regardless of caller ordering.
func compilePreds(schema Schema, preds []Pred) matcher {
	m := matcher{preds: make([]compiledPred, 0, len(preds))}
	for _, p := range preds {
		cp := compiledPred{col: p.Col, want: p.Want}
		if p.Col < 0 || p.Col >= schema.Arity() {
			m.impossible = true
			return m
		}
		if schema.Columns[p.Col].Type == IntCol {
			n, err := strconv.ParseInt(p.Want, 10, 64)
			if err == nil && strconv.FormatInt(n, 10) == p.Want {
				cp.intVal = n
			} else {
				// fmt.Sprint(int64) only ever emits the canonical
				// rendering, so a non-canonical probe matches nothing.
				m.impossible = true
				return m
			}
		}
		m.preds = append(m.preds, cp)
	}
	sort.SliceStable(m.preds, func(i, j int) bool { return m.preds[i].col < m.preds[j].col })
	return m
}

// window is the [offset, offset+limit) slice of a read's match sequence
// (limit <= 0 means "to the end"), advanced as matches are counted.
// Every windowed read, a scan's or an index plan's, clips through it in
// pagedBackend.Page, so the offset/limit conventions exist once.
type window struct{ offset, limit, seen int }

// newWindow clamps a negative offset to 0.
func newWindow(offset, limit int) window { return window{offset: max(offset, 0), limit: limit} }

// take counts the next k matches and returns which of them, as the
// half-open range [lo, hi) of 0..k, fall inside the window. limit is
// compared against the room left rather than added to offset, which a
// huge caller-supplied limit would overflow.
func (w *window) take(k int) (lo, hi int) {
	lo, hi = min(max(w.offset-w.seen, 0), k), k
	if room := w.limit - max(w.seen-w.offset, 0); w.limit > 0 && room < k-lo {
		hi = lo + max(room, 0)
	}
	w.seen += k
	return lo, hi
}

// admit counts one match and reports whether the window holds it.
func (w *window) admit() bool {
	lo, hi := w.take(1)
	return lo < hi
}

// full reports that no later match can fall inside the window.
func (w *window) full() bool { return w.limit > 0 && w.seen-w.offset >= w.limit }

// BackendStats are one backend's page-cache counters: decoded-page
// cache lookups, where a miss fetches and decodes one full page. A
// filtered read's plan is not counted here: PageWhereInfo returns it.
type BackendStats struct {
	CacheHits, CacheMisses int64
}

// BackendKinds lists the storage engine names NewEngine accepts, in
// presentation order. The empty string resolves to "memory". What
// validates an engine name (NewEngine, fonduer-serve's -backend flag)
// derives its message from this list, so the valid set cannot drift.
func BackendKinds() []string { return []string{"memory", "disk", "columnar"} }

// ValidBackendKind reports whether kind names a storage engine ("" is
// valid and selects the default in-memory engine).
func ValidBackendKind(kind string) bool {
	if kind == "" {
		return true
	}
	for _, k := range BackendKinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// BackendKindsWant renders BackendKinds for error and usage messages:
// "memory, disk or columnar".
func BackendKindsWant() string {
	ks := BackendKinds()
	return strings.Join(ks[:len(ks)-1], ", ") + " or " + ks[len(ks)-1]
}

// NewEngine resolves an engine kind: "" or "memory" is the in-memory
// engine, "disk" the engine with one segment file per table under dir (a
// fresh temporary directory when dir is empty), "columnar" the engine
// with its pages on the heap; both paging kinds get the default page
// geometry.
func NewEngine(kind, dir string) (*Engine, error) {
	switch kind {
	case "", "memory":
		return memoryEngine, nil
	case "disk":
		return NewDiskEngine(dir, 0, 0)
	case "columnar":
		return NewColumnarEngine(0, 0), nil
	default:
		return nil, fmt.Errorf("kbase: unknown backend %q (want %s)", kind, BackendKindsWant())
	}
}
