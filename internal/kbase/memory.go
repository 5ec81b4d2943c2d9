package kbase

import (
	"io"
	"slices"
	"strconv"
)

// MemoryEngine creates in-memory backends: every row resident, zero I/O.
type MemoryEngine struct{}

// Kind returns "memory".
func (MemoryEngine) Kind() string { return "memory" }

// NewBackend creates an empty in-memory backend.
func (MemoryEngine) NewBackend(schema Schema) (Backend, error) {
	b := &memoryBackend{cols: make([]memColumn, schema.Arity())}
	for c, col := range schema.Columns {
		b.cols[c].typ = col.Type
	}
	return b, nil
}

// Close is a no-op.
func (MemoryEngine) Close() error { return nil }

// memoryBackend is the "memory" kind: typed vectors, no paging. A column
// is stored as what the schema declares — an integer column as []int64,
// a float column as []float64, a string column as []uint32 ids into the
// dictionary of its distinct values — so a row costs its payload, none
// of it pointers, and a Tuple exists only for a row a caller receives:
// Scan lends one per-call scratch tuple, Page builds its window's rows,
// and predicates, the dedup probe and the snapshot renderer read the
// vectors in place.
//
// There is no lock. An append may run beside nothing; any number of
// reads may run beside each other (the published KB), and every read
// keeps its scratch on its own stack.
type memoryBackend struct {
	n    int
	cols []memColumn
}

// memColumn is one column's cells; typ says which vector holds them.
type memColumn struct {
	typ    ColType
	ints   []int64
	floats []float64
	// A string column: ids[i] numbers row i's value in the column's
	// dictionary, which numbers distinct values in first-seen order. vals
	// keeps each value boxed, so handing a row out copies an interface
	// and allocates nothing.
	ids  []uint32
	vals []any
	idOf map[string]uint32
}

// str is the string with dictionary id.
func (col *memColumn) str(id uint32) string { return col.vals[id].(string) }

// intern returns the dictionary id of s, which joins the dictionary —
// in box, if that is not nil and so holds s — if it is new.
func (col *memColumn) intern(s string, box any) uint32 {
	id, ok := col.idOf[s]
	if !ok {
		if col.idOf == nil {
			col.idOf = map[string]uint32{}
		}
		if box == nil {
			box = s
		}
		id = uint32(len(col.vals))
		col.idOf[s] = id
		col.vals = append(col.vals, box)
	}
	return id
}

// gather appends src[r] for every r of rows to dst, which grows once.
func gather[T any](dst, src []T, rows []int) []T {
	dst = slices.Grow(dst, len(rows))
	for _, r := range rows {
		dst = append(dst, src[r])
	}
	return dst
}

// append stores the listed cells of the batch column v, which Table has
// checked is of the column's type. A string cell costs a dictionary
// probe, unless it repeats the cell before it.
func (col *memColumn) append(v *vector, rows []int) {
	switch col.typ {
	case IntCol:
		col.ints = gather(col.ints, v.ints, rows)
	case FloatCol:
		col.floats = gather(col.floats, v.floats, rows)
	default:
		col.ids = slices.Grow(col.ids, len(rows))
		var last string
		var id uint32
		for k, r := range rows {
			if s := v.strs[r]; k == 0 || s != last {
				last, id = s, col.intern(s, v.carried(r))
			}
			col.ids = append(col.ids, id)
		}
	}
}

// cell returns row i's cell as a Tuple holds it.
func (col *memColumn) cell(i int) any {
	switch col.typ {
	case IntCol:
		return col.ints[i]
	case FloatCol:
		return col.floats[i]
	default:
		return col.vals[col.ids[i]]
	}
}

// equal reports whether row i's cell and row r's of the batch column v
// have the same dedup key.
func (col *memColumn) equal(i int, v *vector, r int) bool {
	switch col.typ {
	case IntCol:
		return col.ints[i] == v.ints[r]
	case FloatCol:
		return floatsEqual(col.floats[i], v.floats[r])
	default:
		return col.str(col.ids[i]) == v.strs[r]
	}
}

// keep re-packs the column to the rows marked in keep (kept of them)
// into vectors of exactly that size, and a string column's dictionary
// to the values those rows still use, so what was deleted is released.
func (col *memColumn) keep(keep []bool, kept int) {
	switch col.typ {
	case IntCol:
		col.ints = packKept(col.ints, keep, kept)
	case FloatCol:
		col.floats = packKept(col.floats, keep, kept)
	default:
		old := *col
		*col = memColumn{typ: StringCol, ids: make([]uint32, 0, kept)}
		for i, id := range old.ids {
			if keep[i] {
				col.ids = append(col.ids, col.intern(old.str(id), old.vals[id]))
			}
		}
	}
}

func packKept[T any](cells []T, keep []bool, kept int) []T {
	out := make([]T, 0, kept)
	for i, v := range cells {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out
}

func (b *memoryBackend) Kind() string { return "memory" }

func (b *memoryBackend) Len() int { return b.n }

func (b *memoryBackend) Append(bt *Batch, rows []int) (int, error) {
	for c := range b.cols {
		b.cols[c].append(&bt.cols[c], rows)
	}
	b.n += len(rows)
	return len(rows), nil
}

func (b *memoryBackend) Equal(i int, bt *Batch, r int) bool {
	for c := range b.cols {
		if !b.cols[c].equal(i, &bt.cols[c], r) {
			return false
		}
	}
	return true
}

// fill writes row i into tp.
func (b *memoryBackend) fill(tp Tuple, i int) {
	for c := range b.cols {
		tp[c] = b.cols[c].cell(i)
	}
}

// test compiles one predicate into a check of row i on the column's
// vector: an integer probe compares raw, a string probe is resolved to
// its dictionary id once (one the dictionary does not hold matches no
// row, and the second result is false), a float cell is rendered into a
// stack buffer.
func (b *memoryBackend) test(p compiledPred) (func(i int) bool, bool) {
	col := &b.cols[p.col]
	switch col.typ {
	case IntCol:
		ints, want := col.ints, p.intVal // compilePreds proved the probe canonical
		return func(i int) bool { return ints[i] == want }, true
	case FloatCol:
		floats, want := col.floats, p.want
		return func(i int) bool {
			var buf [32]byte
			return string(strconv.AppendFloat(buf[:0], floats[i], 'g', -1, 64)) == want
		}, true
	default:
		ids := col.ids
		want, ok := col.idOf[p.want]
		return func(i int) bool { return ids[i] == want }, ok
	}
}

// each calls fn with the position of every row matching m, ascending,
// until fn returns false. at, when non-nil, lists the only (ascending)
// positions to consider — an index plan's candidates.
func (b *memoryBackend) each(at []int, m matcher, fn func(i int) bool) {
	tests := make([]func(int) bool, len(m.preds))
	for k, p := range m.preds {
		var ok bool
		if tests[k], ok = b.test(p); !ok {
			return
		}
	}
	visit := func(i int) bool {
		for _, test := range tests {
			if !test(i) {
				return true
			}
		}
		return fn(i)
	}
	if at != nil {
		for _, i := range at {
			if !visit(i) {
				return
			}
		}
		return
	}
	for i := 0; i < b.n; i++ {
		if !visit(i) {
			return
		}
	}
}

func (b *memoryBackend) Scan(at []int, m matcher, fn func(Tuple) bool) {
	scratch := make(Tuple, len(b.cols))
	b.each(at, m, func(i int) bool {
		b.fill(scratch, i)
		return fn(scratch)
	})
}

func (b *memoryBackend) Page(at []int, m matcher, offset, limit int) ([]Tuple, int, int) {
	w := newWindow(offset, limit)
	var sel []int
	if at == nil && len(m.preds) == 0 {
		// Match k is row k: the window is a run of positions.
		lo, hi := w.take(b.n)
		sel = make([]int, hi-lo)
		for k := range sel {
			sel[k] = lo + k
		}
	} else {
		// Only in-window matches are kept; counting runs to the end so
		// that total is exact.
		b.each(at, m, func(i int) bool {
			if w.admit() {
				sel = append(sel, i)
			}
			return true
		})
	}
	if len(sel) == 0 {
		return nil, w.seen, 0
	}
	// The window's rows are cut from one cell buffer, each capped to its
	// own cells, and filled a column at a time.
	arity := len(b.cols)
	cells := make(Tuple, len(sel)*arity)
	out := make([]Tuple, len(sel))
	for k := range out {
		out[k] = cells[k*arity : (k+1)*arity : (k+1)*arity]
	}
	for c := range b.cols {
		col := &b.cols[c]
		for k, i := range sel {
			out[k][c] = col.cell(i)
		}
	}
	return out, w.seen, 0
}

func (b *memoryBackend) DeleteWhere(pred func(Tuple) bool) int {
	keep := make([]bool, b.n)
	scratch := make(Tuple, len(b.cols))
	kept := 0
	for i := range keep {
		b.fill(scratch, i)
		if keep[i] = !pred(scratch); keep[i] {
			kept++
		}
	}
	deleted := b.n - kept
	if deleted > 0 {
		for c := range b.cols {
			b.cols[c].keep(keep, kept)
		}
		b.n = kept
	}
	return deleted
}

// Snapshot renders the rows from the vectors, no tuple built — the
// bytes appendTupleTSV emits for the same rows.
func (b *memoryBackend) Snapshot(w io.Writer) error {
	var buf []byte
	for i := 0; i < b.n; i++ {
		buf = buf[:0]
		for c := range b.cols {
			if c > 0 {
				buf = append(buf, '\t')
			}
			switch col := &b.cols[c]; col.typ {
			case IntCol:
				buf = strconv.AppendInt(buf, col.ints[i], 10)
			case FloatCol:
				buf = strconv.AppendFloat(buf, col.floats[i], 'g', -1, 64)
			default:
				buf = appendFieldTSV(buf, col.str(col.ids[i]))
			}
		}
		if _, err := w.Write(append(buf, '\n')); err != nil {
			return err
		}
	}
	return nil
}

func (b *memoryBackend) Stats() BackendStats { return BackendStats{} }

func (b *memoryBackend) Close() error {
	b.n, b.cols = 0, nil
	return nil
}
