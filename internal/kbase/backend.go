package kbase

import (
	"fmt"
	"io"
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
// Every windowed read — each backend's Page and Table's index plan —
// clips through it, so the offset/limit conventions exist once.
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

// Backend is the row storage behind a Table. A Table owns exactly one
// backend and layers relational semantics on top of it — schema/type
// checking, set semantics via a compact hash index, and the filtered-read
// planner — so a backend only has to store an ordered row sequence.
//
// There is one implementation, pagedBackend (paged.go): typed pages of
// column vectors (page.go), which the "disk" and "columnar" kinds seal
// into a page store as they fill and the "memory" kind keeps open.
//
// Contract, relied on by Table and by the cross-backend equivalence
// tests:
//
//   - Append stores its own copy of the listed rows of a batch Table has
//     checked against the schema, a column at a time, and retains nothing
//     of the batch. It stops at the first row it fails to store and
//     returns how many it stored: those stay, and the backend is as if
//     the call had listed only them (the next Append retries whatever
//     failed). It preserves insertion order; Scan, Page and Snapshot
//     observe rows in exactly that order, and Equal addresses them by it.
//   - Scan and Page are the only read entry points. Both take the
//     conjunction already compiled by Table (never an impossible one;
//     the zero matcher selects every row) and number its matches in
//     insertion order. at, when non-nil, lists in ascending order the
//     only positions worth considering (an index plan's candidates);
//     every one of them is still checked against the conjunction. Scan
//     streams the matches *borrowed* — its tuple is a scratch row
//     overwritten by the next match, so it must not be retained or
//     modified — until fn returns false. Page returns detached rows for
//     the matches numbered [offset, offset+limit) (limit <= 0 means "to
//     the end", a negative offset is 0, an empty window is nil) plus the
//     exact number of matches: rows stop being built once the window
//     fills, counting always runs to the end — except that with no
//     predicates the count is Len, so the walk goes straight to the
//     offset's page and stops after the window.
//   - Concurrency: Append may run beside any number of reads, and reads
//     beside each other; a read sees the rows stored when it began.
//     DeleteWhere must run beside nothing.
//   - DeleteWhere keeps survivors in relative order and re-packs
//     positions densely (row i is the i-th surviving row).
//   - Snapshot streams the rows in the escaped-TSV row encoding of
//     WriteTSV, so a table's serialized bytes are identical across
//     kinds holding the same rows in the same order.
type Backend interface {
	// Kind names the backend (one of BackendKinds).
	Kind() string
	// Len returns the number of stored rows.
	Len() int
	// Append stores rows rows[0], rows[1], … of the checked batch b at
	// positions Len(), Len()+1, … and returns how many it stored, with the
	// error that stopped it short.
	Append(b *Batch, rows []int) (int, error)
	// Equal reports whether the row at position i and row r of the
	// checked batch b have the same dedup key, comparing typed cells in
	// place. It panics when i is out of range — positions come from the
	// Table's index and are trusted.
	Equal(i int, b *Batch, r int) bool
	// Scan is the streaming read: see the contract above.
	Scan(at []int, m matcher, fn func(Tuple) bool)
	// Page is the windowed read: see the contract above.
	Page(at []int, m matcher, offset, limit int) (rows []Tuple, total int)
	// DeleteWhere removes rows satisfying pred (which borrows its tuple,
	// as Scan's callback does), returning how many were removed.
	DeleteWhere(pred func(Tuple) bool) int
	// Snapshot writes the rows (no header) in the WriteTSV row
	// encoding.
	Snapshot(w io.Writer) error
	// Stats reports the backend's page-cache counters (zero-valued on
	// the memory kind).
	Stats() BackendStats
	// Close releases backend resources (the spill segment and its
	// descriptor). The backend is unusable afterwards.
	Close() error
}

// BackendStats are one backend's page-cache counters: decoded-page
// cache lookups, where a miss fetches and decodes one full page. A
// filtered read's plan is not counted here: PageWhereInfo returns it.
type BackendStats struct {
	CacheHits, CacheMisses int64
}

// Engine creates backends — one per table — sharing a storage policy
// (page geometry and, for the "disk" kind, a spill directory).
type Engine interface {
	// Kind names the engine; every backend it creates reports the
	// same kind.
	Kind() string
	// NewBackend creates an empty backend for one table.
	NewBackend(schema Schema) (Backend, error)
	// Close releases engine-wide resources. Backends created by the
	// engine must be closed first.
	Close() error
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
// engine, "disk" the paged engine with one segment file per table under
// dir (a fresh temporary directory when dir is empty), "columnar" the paged
// engine with its pages on the heap; both paged kinds get the default
// page geometry.
func NewEngine(kind, dir string) (Engine, error) {
	switch kind {
	case "", "memory":
		return MemoryEngine{}, nil
	case "disk":
		return NewDiskEngine(dir, 0, 0)
	case "columnar":
		return NewColumnarEngine(0, 0), nil
	default:
		return nil, fmt.Errorf("kbase: unknown backend %q (want %s)", kind, BackendKindsWant())
	}
}
