package kbase

import (
	"fmt"
	"slices"
	"strconv"
)

// Batch is the unit of insertion: rows of one schema held column-major,
// each column as one vector of the type its schema column declares
// ([]int64, []float64 or []string). A producer appends cells column by
// column — nothing is boxed — and hands the batch to Table.InsertBatch,
// which checks it against the schema once per column, not once per cell.
// A batch is never retained by the table it was inserted into and may be
// Reset and filled again.
type Batch struct {
	cols []vector
}

// vector is one batch column's cells: exactly one of the three typed
// slices is in use, the one of the column's declared type.
type vector struct {
	ints   []int64
	floats []float64
	strs   []string
}

func (v *vector) len() int { return len(v.ints) + len(v.floats) + len(v.strs) }

// NewBatch returns an empty batch for the schema with room for rows rows.
func NewBatch(schema Schema, rows int) *Batch {
	b := &Batch{cols: make([]vector, schema.Arity())}
	for c, col := range schema.Columns {
		switch v := &b.cols[c]; col.Type {
		case IntCol:
			v.ints = make([]int64, 0, rows)
		case FloatCol:
			v.floats = make([]float64, 0, rows)
		default:
			v.strs = make([]string, 0, rows)
		}
	}
	return b
}

// Len returns the number of rows: the length of the first column (a batch
// whose columns disagree is refused by InsertBatch).
func (b *Batch) Len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].len()
}

// Reset empties the batch, keeping its vectors' capacity. String cells
// are cleared, so a reused batch does not pin the last one's strings.
func (b *Batch) Reset() {
	for c := range b.cols {
		v := &b.cols[c]
		clear(v.strs)
		v.ints, v.floats, v.strs = v.ints[:0], v.floats[:0], v.strs[:0]
	}
}

// AppendInt appends one cell to integer column c.
func (b *Batch) AppendInt(c int, x int64) { b.cols[c].ints = append(b.cols[c].ints, x) }

// AppendFloat appends one cell to float column c.
func (b *Batch) AppendFloat(c int, x float64) { b.cols[c].floats = append(b.cols[c].floats, x) }

// AppendString appends one cell to string column c.
func (b *Batch) AppendString(c int, s string) { b.cols[c].strs = append(b.cols[c].strs, s) }

// Int returns the cell of row r in integer column c.
func (b *Batch) Int(c, r int) int64 { return b.cols[c].ints[r] }

// Str returns the cell of row r in string column c.
func (b *Batch) Str(c, r int) string { return b.cols[c].strs[r] }

// check is the type check: every column holds Len cells, all of them in
// the vector of the type the schema declares.
func (b *Batch) check(schema Schema) error {
	if len(b.cols) != schema.Arity() {
		return fmt.Errorf("kbase: %s: arity %d, got a batch of %d columns", schema.Name, schema.Arity(), len(b.cols))
	}
	n := b.Len()
	for c, col := range schema.Columns {
		v := &b.cols[c]
		typed := len(v.strs)
		switch col.Type {
		case IntCol:
			typed = len(v.ints)
		case FloatCol:
			typed = len(v.floats)
		}
		if typed != n || v.len() != n {
			return fmt.Errorf("kbase: %s.%s: batch column holds %d %s cells of %d, want %d",
				schema.Name, col.Name, typed, col.Type, v.len(), n)
		}
	}
	return nil
}

// appendCell appends v to column c as a cell of type ct (an int widens
// to int64) and reports whether v is one.
func (b *Batch) appendCell(c int, ct ColType, v any) bool {
	col := &b.cols[c]
	switch x := v.(type) {
	case string:
		if ct != StringCol {
			return false
		}
		col.strs = append(col.strs, x)
	case int64:
		if ct != IntCol {
			return false
		}
		col.ints = append(col.ints, x)
	case int:
		if ct != IntCol {
			return false
		}
		col.ints = append(col.ints, int64(x))
	case float64:
		if ct != FloatCol {
			return false
		}
		col.floats = append(col.floats, x)
	default:
		return false
	}
	return true
}

// appendField appends the cell a TSV field (or any rendered value) s
// stands for in a column of type ct.
func (b *Batch) appendField(c int, ct ColType, s string) error {
	switch ct {
	case IntCol:
		x, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
		b.AppendInt(c, x)
	case FloatCol:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		b.AppendFloat(c, x)
	default:
		b.AppendString(c, s)
	}
	return nil
}

// appendProbe appends to column c the cell of type ct that renders as v
// does — what a stored cell must be to have v's dedup key — and reports
// whether there is one. A cell of the column's type is itself; anything
// else (Contains and Delete do not type-check) goes by its rendering.
func (b *Batch) appendProbe(c int, ct ColType, v any) bool {
	if b.appendCell(c, ct, v) {
		return true
	}
	s := renderCell(v)
	if b.appendField(c, ct, s) != nil {
		return false
	}
	// A number is stored under its canonical rendering only.
	switch col := &b.cols[c]; ct {
	case IntCol:
		return strconv.FormatInt(col.ints[len(col.ints)-1], 10) == s
	case FloatCol:
		return strconv.FormatFloat(col.floats[len(col.floats)-1], 'g', -1, 64) == s
	}
	return true
}

// appendFields appends one row from its unescaped TSV fields,
// type-converting each against the schema. After an error the batch
// holds part of a row and must not be inserted.
func (b *Batch) appendFields(schema Schema, parts []string) error {
	if len(parts) != schema.Arity() {
		return fmt.Errorf("%d values, want %d", len(parts), schema.Arity())
	}
	for c, p := range parts {
		if err := b.appendField(c, schema.Columns[c].Type, p); err != nil {
			return err
		}
	}
	return nil
}

// appendTuple transposes one tuple into the batch, enforcing arity and
// column types. A rejected tuple leaves the batch as it was.
func (b *Batch) appendTuple(schema Schema, tp Tuple) error {
	if len(tp) != schema.Arity() {
		return fmt.Errorf("kbase: %s: arity %d, got %d values", schema.Name, schema.Arity(), len(tp))
	}
	n := b.Len()
	for c, v := range tp {
		if col := schema.Columns[c]; !b.appendCell(c, col.Type, v) {
			b.truncate(n)
			return fmt.Errorf("kbase: %s.%s: value %v (%T) does not match %s", schema.Name, col.Name, v, v, col.Type)
		}
	}
	return nil
}

// truncate cuts every column back to at most n rows.
func (b *Batch) truncate(n int) {
	for c := range b.cols {
		v := &b.cols[c]
		v.ints, v.floats, v.strs = v.ints[:min(n, len(v.ints))], v.floats[:min(n, len(v.floats))], v.strs[:min(n, len(v.strs))]
	}
}

// appendTSV appends row r of a checked batch in the escaped-TSV row
// encoding of WriteTSV (no trailing newline), each cell rendered as an
// open page's appendTSV renders it.
func (b *Batch) appendTSV(dst []byte, r int) []byte {
	for c := range b.cols {
		if c > 0 {
			dst = append(dst, '\t')
		}
		switch v := &b.cols[c]; {
		case len(v.ints) > 0:
			dst = strconv.AppendInt(dst, v.ints[r], 10)
		case len(v.floats) > 0:
			dst = strconv.AppendFloat(dst, v.floats[r], 'g', -1, 64)
		default:
			dst = appendFieldTSV(dst, v.strs[r])
		}
	}
	return dst
}

// equal reports whether rows i and j of a checked batch have the same
// dedup key.
func (b *Batch) equal(i, j int) bool {
	for c := range b.cols {
		switch v := &b.cols[c]; {
		case len(v.ints) > 0:
			if v.ints[i] != v.ints[j] {
				return false
			}
		case len(v.floats) > 0:
			if !floatsEqual(v.floats[i], v.floats[j]) {
				return false
			}
		default:
			if v.strs[i] != v.strs[j] {
				return false
			}
		}
	}
	return true
}

// hash computes every row's dedup hash into hs (reused when it has the
// room), a column at a time: row r's is hashTuple of the row's cells.
func (b *Batch) hash(hs []uint64) []uint64 {
	n := b.Len()
	hs = slices.Grow(hs[:0], n)[:n]
	for r := range hs {
		hs[r] = fnvOffset64
	}
	var buf [32]byte
	for c := range b.cols {
		if c > 0 {
			for r := range hs {
				hs[r] *= fnvPrime64 // the NUL separator: h ^ 0 is h
			}
		}
		v := &b.cols[c]
		for r, x := range v.ints {
			hs[r] = fnvAdd(hs[r], strconv.AppendInt(buf[:0], x, 10))
		}
		for r, x := range v.floats {
			hs[r] = fnvAdd(hs[r], strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
		}
		for r, s := range v.strs {
			hs[r] = fnvAdd(hs[r], s)
		}
	}
	for r := range hs {
		hs[r] &= dedupHashMask
	}
	return hs
}
