package kbase

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Lazy secondary hash indexes and the tiny planner that routes each
// filtered read to one of two access paths:
//
//	index → scan
//
// An index maps fnv64(rendered column value) → ascending row
// positions. Columns become index candidates ("hot") either
// explicitly via Table.EnsureIndex or automatically once a column has
// been filtered on autoIndexAfter times; the index itself is built on
// the first filtered read after that, and only while the table is at
// most maxIndexedRows long (the postings map costs ~16 bytes/row).
// Every mutation (Insert, Delete, DeleteWhere) drops built indexes —
// positions shift on deletes and appends would leave the postings
// stale — while keeping the hot marks, so the next filtered read
// rebuilds. Planner state lives behind its own mutex because filtered
// reads arrive concurrently from lock-free StoreView readers.
//
// Plans never change results: both plans are one backend read. The
// index plan hands it the driving value's postings — candidate
// positions in ascending (= insertion) order — and the backend verifies
// every one against the full compiled conjunction (hash collisions and
// the other predicates), so it emits exactly the rows a scan would, in
// the same order. The scan plan hands it none, and the backend tests
// every row of every page.
const autoIndexAfter = 2

// maxIndexedRows caps index builds; a var so tests can lower it.
var maxIndexedRows = 1 << 20

// colIndex is one built column index.
type colIndex struct {
	postings map[uint64][]int // fnv64(rendered value) -> ascending positions
}

// planner is a table's query-planning state.
type planner struct {
	mu   sync.Mutex
	auto bool              // heat-based hot marking enabled
	heat map[int]int       // filtered-read count per column
	hot  map[int]bool      // columns to index on next filtered read
	idx  map[int]*colIndex // built indexes
	// built mirrors len(idx) > 0, so that invalidate — called by every
	// insert batch, almost always on a table nobody has filtered — can
	// tell there is nothing to drop without taking mu.
	built atomic.Bool
}

func newPlanner() *planner {
	return &planner{auto: true, heat: map[int]int{}, hot: map[int]bool{}, idx: map[int]*colIndex{}}
}

// invalidate drops built indexes (hot marks and heat survive, so the
// next filtered read rebuilds). Called on every mutation.
func (p *planner) invalidate() {
	if !p.built.Load() {
		return
	}
	p.mu.Lock()
	clear(p.idx)
	p.built.Store(false)
	p.mu.Unlock()
}

// EnsureIndex marks the named column as hot: its hash index is built
// on the next filtered read touching it (and rebuilt after mutations).
func (t *Table) EnsureIndex(col string) error {
	c := t.schema.ColIndex(col)
	if c < 0 {
		return fmt.Errorf("kbase: %s has no column %q", t.schema.Name, col)
	}
	t.plan.mu.Lock()
	t.plan.hot[c] = true
	t.plan.mu.Unlock()
	return nil
}

// SetAutoIndex toggles heat-based index selection (on by default):
// when enabled, a column filtered on autoIndexAfter times is marked
// hot automatically.
func (t *Table) SetAutoIndex(on bool) {
	t.plan.mu.Lock()
	t.plan.auto = on
	t.plan.mu.Unlock()
}

// choosePlan records the filtered read in the heat map, builds any
// newly-eligible index, and returns the ascending positions the read
// need consider — the postings of the driving predicate's value, empty
// but never nil when no row holds it — or nil for the scan plan.
// Deterministic: the lowest-numbered predicate column with an index
// wins. The empty conjunction is not a filtered read: it always scans
// and is not counted.
func (t *Table) choosePlan(m matcher) []int {
	if len(m.preds) == 0 {
		return nil
	}
	p := t.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cp := range m.preds {
		p.heat[cp.col]++
		if p.auto && p.heat[cp.col] >= autoIndexAfter {
			p.hot[cp.col] = true
		}
	}
	postings := func(ci *colIndex, cp compiledPred) []int {
		if at := ci.postings[hashKey(cp.want)]; at != nil {
			return at
		}
		return []int{}
	}
	for _, cp := range m.preds {
		if p.idx[cp.col] != nil {
			return postings(p.idx[cp.col], cp)
		}
	}
	for _, cp := range m.preds {
		if p.hot[cp.col] && t.be.Len() <= maxIndexedRows {
			ci := buildColIndex(t.be, cp.col)
			p.idx[cp.col] = ci
			p.built.Store(true)
			return postings(ci, cp)
		}
	}
	return nil
}

// buildColIndex scans the backend once, hashing one column's rendered
// values into a postings map.
func buildColIndex(be *pagedBackend, col int) *colIndex {
	ci := &colIndex{postings: make(map[uint64][]int)}
	pos := 0
	be.Scan(nil, matcher{}, func(tp Tuple) bool {
		h := hashKey(renderCell(tp[col]))
		ci.postings[h] = append(ci.postings[h], pos)
		pos++
		return true
	})
	return ci
}

// PlanInfo describes how one filtered read was answered, for slow-
// query logging and tracing. Plan is one of "unfiltered" (no
// predicates), "impossible" (a predicate no row can satisfy: a missing
// column or a non-canonical integer probe), "index" (hash-index probe)
// or "scan" (a walk of every page).
type PlanInfo struct {
	Plan string
}

// PageWhere returns detached clones of up to limit matching tuples
// starting at the offset-th match (limit <= 0 means "to the end"),
// plus the exact total number of matches — the pushed-down form of
// the serving layer's filter-then-paginate read. Results are
// bit-identical across backends and plans; only the work differs.
func (t *Table) PageWhere(preds []Pred, offset, limit int) ([]Tuple, int) {
	out, total, _ := t.PageWhereInfo(preds, offset, limit)
	return out, total
}

// PageWhereInfo is PageWhere plus a PlanInfo describing the access
// path taken, so callers can log slow filtered reads with the plan
// that produced them.
func (t *Table) PageWhereInfo(preds []Pred, offset, limit int) ([]Tuple, int, PlanInfo) {
	m := compilePreds(t.schema, preds)
	if m.impossible {
		return nil, 0, PlanInfo{Plan: "impossible"}
	}
	at := t.choosePlan(m)
	out, total := t.be.Page(at, m, offset, limit)
	plan := "scan"
	switch {
	case at != nil:
		plan = "index"
	case len(m.preds) == 0:
		plan = "unfiltered"
	}
	return out, total, PlanInfo{Plan: plan}
}
