// Package sparse implements the two sparse matrix representations
// Appendix C.2 of the paper studies for the Features and Labels
// relations: list of lists (LIL) and coordinate list (COO).
//
// Both represent a sparse matrix whose rows are candidates and whose
// columns are feature or labeling-function indices. Their access costs
// differ by design:
//
//   - LIL stores each row as a list of (column, value) pairs. Entire
//     rows are retrieved in one step (fast queries, the dominant access
//     in production and in the iterative development loop for
//     Features), but updating a value requires scanning the row's list.
//   - COO stores (row, column, value) triples in insertion order.
//     Appending is O(1) (fast updates, the dominant access for Labels
//     while users iterate on labeling functions), but fetching a row
//     requires touching many triples.
//
// The package exposes both behind a common Matrix interface so the
// Appendix C.2 study (experiments.SparseStudy and the BenchmarkSparse*
// benchmarks) can compare them directly. The pipeline uses neither: its
// Labels relation is the store's row-major vote rows (labeling.Matrix).
package sparse

import "sort"

// Entry is one stored cell of a sparse matrix.
type Entry struct {
	Row, Col int
	Val      float64
}

// Matrix is a mutable sparse matrix. Implementations are not safe for
// concurrent mutation.
type Matrix interface {
	// Set writes value v at (row, col), replacing any previous value.
	Set(row, col int, v float64)
	// Get returns the value at (row, col), zero when absent.
	Get(row, col int) float64
	// Row returns the non-zero entries of a row in ascending column
	// order.
	Row(row int) []Entry
	// NNZ returns the number of stored (non-zero) entries.
	NNZ() int
	// Rows returns the number of rows (max stored row + 1).
	Rows() int
	// Name identifies the representation ("lil" or "coo").
	Name() string
}

// LIL is the list-of-lists representation.
type LIL struct {
	rows [][]Entry
	nnz  int
}

// NewLIL returns an empty LIL matrix.
func NewLIL() *LIL { return &LIL{} }

// Name implements Matrix.
func (m *LIL) Name() string { return "lil" }

// Set implements Matrix. Within a row, entries are kept in ascending
// column order; updating an existing column scans the row.
func (m *LIL) Set(row, col int, v float64) {
	if row < 0 || col < 0 {
		panic("sparse: negative index")
	}
	for len(m.rows) <= row {
		m.rows = append(m.rows, nil)
	}
	r := m.rows[row]
	i := sort.Search(len(r), func(i int) bool { return r[i].Col >= col })
	if i < len(r) && r[i].Col == col {
		if v == 0 {
			m.rows[row] = append(r[:i], r[i+1:]...)
			m.nnz--
		} else {
			r[i].Val = v
		}
		return
	}
	if v == 0 {
		return
	}
	r = append(r, Entry{})
	copy(r[i+1:], r[i:])
	r[i] = Entry{Row: row, Col: col, Val: v}
	m.rows[row] = r
	m.nnz++
}

// Get implements Matrix.
func (m *LIL) Get(row, col int) float64 {
	if row < 0 || row >= len(m.rows) {
		return 0
	}
	r := m.rows[row]
	i := sort.Search(len(r), func(i int) bool { return r[i].Col >= col })
	if i < len(r) && r[i].Col == col {
		return r[i].Val
	}
	return 0
}

// Row implements Matrix; the returned slice aliases internal storage
// and must not be modified.
func (m *LIL) Row(row int) []Entry {
	if row < 0 || row >= len(m.rows) {
		return nil
	}
	return m.rows[row]
}

// NNZ implements Matrix.
func (m *LIL) NNZ() int { return m.nnz }

// Rows implements Matrix.
func (m *LIL) Rows() int { return len(m.rows) }

// cooBlock is the fixed allocation unit of the COO log; blocks are
// never copied once allocated, so appends stay constant-time with no
// growth-copy cost (the write-optimized layout Appendix C.2 wants for
// the Labels relation during labeling-function iteration).
const cooBlock = 4096

// COO is the coordinate-list representation: an append-only log of
// (row, col, value) triples stored in fixed-size blocks. Set is a
// constant-time append; reads must scan the triples, with later writes
// shadowing earlier ones (update semantics).
type COO struct {
	blocks [][]Entry
	maxRow int
}

// NewCOO returns an empty COO matrix.
func NewCOO() *COO {
	return &COO{maxRow: -1}
}

// Name implements Matrix.
func (m *COO) Name() string { return "coo" }

// Set implements Matrix by appending a triple. Zero values are
// recorded too: they shadow (delete) earlier writes at read time.
func (m *COO) Set(row, col int, v float64) {
	if row < 0 || col < 0 {
		panic("sparse: negative index")
	}
	n := len(m.blocks)
	if n == 0 || len(m.blocks[n-1]) == cooBlock {
		m.blocks = append(m.blocks, make([]Entry, 0, cooBlock))
		n++
	}
	m.blocks[n-1] = append(m.blocks[n-1], Entry{Row: row, Col: col, Val: v})
	if row > m.maxRow {
		m.maxRow = row
	}
}

// scan visits every logged triple in write order.
func (m *COO) scan(fn func(Entry)) {
	for _, b := range m.blocks {
		for _, e := range b {
			fn(e)
		}
	}
}

// Get implements Matrix by scanning for the latest write.
func (m *COO) Get(row, col int) float64 {
	v := 0.0
	m.scan(func(e Entry) {
		if e.Row == row && e.Col == col {
			v = e.Val
		}
	})
	return v
}

// Row implements Matrix. COO must scan all triples — the slow query
// path Appendix C.2 measures. Later writes shadow earlier ones.
func (m *COO) Row(row int) []Entry {
	latest := map[int]float64{}
	m.scan(func(e Entry) {
		if e.Row == row {
			latest[e.Col] = e.Val
		}
	})
	var out []Entry
	for col, v := range latest {
		if v != 0 {
			out = append(out, Entry{Row: row, Col: col, Val: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Col < out[j].Col })
	return out
}

// NNZ implements Matrix; it scans to count distinct live cells.
func (m *COO) NNZ() int {
	latest := map[[2]int]float64{}
	m.scan(func(e Entry) {
		latest[[2]int{e.Row, e.Col}] = e.Val
	})
	n := 0
	for _, v := range latest {
		if v != 0 {
			n++
		}
	}
	return n
}

// Rows implements Matrix.
func (m *COO) Rows() int { return m.maxRow + 1 }
