package kbase

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// binaryCodec is the page format of the paged engine — the only thing a
// pageStore ever holds: one table page encoded column-major into a
// compact binary blob. The layout is
//
//	uvarint rowCount
//	uvarint blockLen per schema column      (the header)
//	block per schema column                 (the body)
//
// where each block is a 1-byte column type tag followed by the
// column's cell vector:
//
//	string: rowCount uvarint byte lengths, then the concatenated
//	        raw cell bytes (arbitrary bytes; no escaping needed)
//	int64:  rowCount raw 8-byte little-endian values
//	float64: rowCount raw 8-byte little-endian IEEE-754 bit patterns
//
// Storing numeric cells as raw bit patterns (math.Float64bits for
// floats) makes decode bit-exact — NaN payloads, -0 and subnormals
// round-trip unchanged — so rendered values, snapshots and predicate
// semantics are byte-identical to the memory engine's. The header's
// per-column block lengths let a reader locate any single column in
// O(arity) without touching the other columns' bytes.
type binaryCodec struct{}

// Column type tags in the binary page format.
const (
	colTagString byte = 0
	colTagInt    byte = 1
	colTagFloat  byte = 2
)

// colTagFor maps a schema column type to its binary tag.
func colTagFor(ct ColType) byte {
	switch ct {
	case IntCol:
		return colTagInt
	case FloatCol:
		return colTagFloat
	default:
		return colTagString
	}
}

// encode encodes rows (normalized tuples matching the schema) into one
// column-major page blob.
func (binaryCodec) encode(schema Schema, rows []Tuple) ([]byte, error) {
	arity := schema.Arity()
	for _, tp := range rows {
		if len(tp) != arity {
			return nil, fmt.Errorf("kbase: columnar page for %s: arity %d, got %d values", schema.Name, arity, len(tp))
		}
	}
	blocks := make([][]byte, arity)
	total := uvarintLen(len(rows))
	for c, col := range schema.Columns {
		// Every block is allocated at its final size: 8 bytes a cell, or a
		// string column's length prefixes and bytes.
		size := 1 + 8*len(rows)
		if colTagFor(col.Type) == colTagString {
			size = 1
			for _, tp := range rows {
				s, _ := tp[c].(string)
				size += uvarintLen(len(s)) + len(s)
			}
		}
		blk := append(make([]byte, 0, size), colTagFor(col.Type))
		switch col.Type {
		case IntCol:
			for _, tp := range rows {
				n, ok := tp[c].(int64)
				if !ok {
					return nil, fmt.Errorf("kbase: columnar page for %s.%s: value %v (%T) is not int64", schema.Name, col.Name, tp[c], tp[c])
				}
				blk = binary.LittleEndian.AppendUint64(blk, uint64(n))
			}
		case FloatCol:
			for _, tp := range rows {
				f, ok := tp[c].(float64)
				if !ok {
					return nil, fmt.Errorf("kbase: columnar page for %s.%s: value %v (%T) is not float64", schema.Name, col.Name, tp[c], tp[c])
				}
				blk = binary.LittleEndian.AppendUint64(blk, math.Float64bits(f))
			}
		default:
			for _, tp := range rows {
				s, ok := tp[c].(string)
				if !ok {
					return nil, fmt.Errorf("kbase: columnar page for %s.%s: value %v (%T) is not string", schema.Name, col.Name, tp[c], tp[c])
				}
				blk = binary.AppendUvarint(blk, uint64(len(s)))
			}
			for _, tp := range rows {
				blk = append(blk, tp[c].(string)...)
			}
		}
		blocks[c] = blk
		total += uvarintLen(len(blk)) + len(blk)
	}
	out := binary.AppendUvarint(make([]byte, 0, total), uint64(len(rows)))
	for _, blk := range blocks {
		out = binary.AppendUvarint(out, uint64(len(blk)))
	}
	for _, blk := range blocks {
		out = append(out, blk...)
	}
	return out, nil
}

// uvarintLen is how many bytes binary.AppendUvarint appends for n.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// colPage is a parsed page header: the row count plus each column's
// tag-prefixed block, sliced out of the (immutable) page blob without
// copying or decoding any cells.
type colPage struct {
	schema Schema
	nrows  int
	blocks [][]byte
}

// parse slices a page blob into its column blocks and validates the
// fixed-width blocks' geometry. String cell boundaries are validated
// lazily by stringColIndex.
func (binaryCodec) parse(schema Schema, blob []byte) (colPage, error) {
	arity := schema.Arity()
	nrows, n := binary.Uvarint(blob)
	if n <= 0 || nrows > uint64(len(blob)) {
		return colPage{}, fmt.Errorf("kbase: columnar page for %s: bad row count", schema.Name)
	}
	off := n
	lens := make([]int, arity)
	for c := 0; c < arity; c++ {
		l, n := binary.Uvarint(blob[off:])
		if n <= 0 || l > uint64(len(blob)) {
			return colPage{}, fmt.Errorf("kbase: columnar page for %s: bad block length for column %d", schema.Name, c)
		}
		lens[c] = int(l)
		off += n
	}
	pg := colPage{schema: schema, nrows: int(nrows), blocks: make([][]byte, arity)}
	for c := 0; c < arity; c++ {
		if lens[c] > len(blob)-off {
			return colPage{}, fmt.Errorf("kbase: columnar page for %s: column %d block truncated", schema.Name, c)
		}
		pg.blocks[c] = blob[off : off+lens[c]]
		off += lens[c]
	}
	if off != len(blob) {
		return colPage{}, fmt.Errorf("kbase: columnar page for %s: %d trailing bytes", schema.Name, len(blob)-off)
	}
	for c, col := range schema.Columns {
		blk := pg.blocks[c]
		if len(blk) == 0 || blk[0] != colTagFor(col.Type) {
			return colPage{}, fmt.Errorf("kbase: columnar page for %s: column %d tag mismatch", schema.Name, c)
		}
		if (col.Type == IntCol || col.Type == FloatCol) && len(blk) != 1+8*pg.nrows {
			return colPage{}, fmt.Errorf("kbase: columnar page for %s: column %d block is %d bytes, want %d", schema.Name, c, len(blk), 1+8*pg.nrows)
		}
	}
	return pg, nil
}

// intColCell reads cell row of a fixed-width int64 block.
func intColCell(blk []byte, row int) int64 {
	return int64(binary.LittleEndian.Uint64(blk[1+8*row:]))
}

// floatColCell reads cell row of a fixed-width float64 block,
// bit-exactly (NaN payloads included).
func floatColCell(blk []byte, row int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(blk[1+8*row:]))
}

// stringColIndex walks a string block's uvarint length prefixes and
// returns the cell boundaries into data: cell i is
// data[offs[i]:offs[i+1]] (offs has nrows+1 entries). The walk reads
// only lengths — no cell is materialized.
func stringColIndex(blk []byte, nrows int) (offs []int, data []byte, err error) {
	offs = make([]int, nrows+1)
	pos, total := 1, 0
	for i := 0; i < nrows; i++ {
		l, n := binary.Uvarint(blk[pos:])
		if n <= 0 || l > uint64(len(blk)) {
			return nil, nil, fmt.Errorf("kbase: columnar string block: bad length for cell %d", i)
		}
		offs[i] = total
		total += int(l)
		pos += n
	}
	offs[nrows] = total
	data = blk[pos:]
	if len(data) != total {
		return nil, nil, fmt.Errorf("kbase: columnar string block: %d data bytes, lengths sum to %d", len(data), total)
	}
	return offs, data, nil
}

// decode materializes every row of a page — the full decode behind
// Get, unfiltered reads and delete rewrites.
func (c binaryCodec) decode(schema Schema, page []byte) ([]Tuple, error) {
	pg, err := c.parse(schema, page)
	if err != nil {
		return nil, err
	}
	return pg.rows(pg.all(), func(int, int) {})
}

// all returns every row position of the page, ascending.
func (pg colPage) all() []int {
	sel := make([]int, pg.nrows)
	for r := range sel {
		sel[r] = r
	}
	return sel
}

// writeTSV renders the page's rows straight from the column vectors, no
// tuple built: stored cells are bit-exact (raw int64/float64 bits, raw
// string bytes), so this emits the bytes appendTupleTSV emits for the
// same rows.
func (bc binaryCodec) writeTSV(w io.Writer, schema Schema, page []byte) error {
	pg, err := bc.parse(schema, page)
	if err != nil {
		return err
	}
	offs, data := make([][]int, len(pg.blocks)), make([][]byte, len(pg.blocks))
	for c, col := range schema.Columns {
		if col.Type == StringCol {
			if offs[c], data[c], err = stringColIndex(pg.blocks[c], pg.nrows); err != nil {
				return err
			}
		}
	}
	buf := make([]byte, 0, len(page)) // a rendered page is about its encoded size
	for r := 0; r < pg.nrows; r++ {
		for c, col := range schema.Columns {
			if c > 0 {
				buf = append(buf, '\t')
			}
			switch col.Type {
			case IntCol:
				buf = strconv.AppendInt(buf, intColCell(pg.blocks[c], r), 10)
			case FloatCol:
				buf = strconv.AppendFloat(buf, floatColCell(pg.blocks[c], r), 'g', -1, 64)
			default:
				buf = appendFieldTSV(buf, data[c][offs[c][r]:offs[c][r+1]])
			}
		}
		buf = append(buf, '\n')
	}
	_, err = w.Write(buf)
	return err
}

// cellPred compiles one predicate against the page into a per-row test
// over the raw column vector. String columns compare cell bytes against
// the probe (the conversion in the comparison does not allocate), int
// columns compare raw int64s, and float columns render only the
// predicate column's cell — never any other column.
func (pg colPage) cellPred(p compiledPred) (func(row int) bool, error) {
	blk := pg.blocks[p.col]
	switch pg.schema.Columns[p.col].Type {
	case IntCol:
		// compilePreds proved the probe canonical (intOK), else the
		// matcher is impossible and no page is ever evaluated.
		return func(row int) bool { return intColCell(blk, row) == p.intVal }, nil
	case FloatCol:
		return func(row int) bool { return renderCell(floatColCell(blk, row)) == p.want }, nil
	default:
		offs, data, err := stringColIndex(blk, pg.nrows)
		return func(row int) bool { return string(data[offs[row]:offs[row+1]]) == p.want }, err
	}
}

// match evaluates a non-empty conjunction against the page, decoding
// only predicate columns, and returns the matching row positions in
// page order: the first predicate examines every row, each further one
// only the survivors. Examined cells are reported to count (column,
// cells); non-predicate columns are never touched.
func (pg colPage) match(m matcher, count func(col, cells int)) ([]int, error) {
	sel := pg.all()
	for _, p := range m.preds {
		if len(sel) == 0 {
			break
		}
		test, err := pg.cellPred(p)
		if err != nil {
			return nil, err
		}
		count(p.col, len(sel))
		kept := sel[:0]
		for _, r := range sel {
			if test(r) {
				kept = append(kept, r)
			}
		}
		sel = kept
	}
	return sel, nil
}

// rows builds detached tuples for the given (ascending) row positions,
// decoding each column only at those positions — the lazy half of a
// filtered read — and reports the decoded cells to count.
func (pg colPage) rows(sel []int, count func(col, cells int)) ([]Tuple, error) {
	out := make([]Tuple, len(sel))
	for i := range out {
		out[i] = make(Tuple, len(pg.blocks))
	}
	for c, col := range pg.schema.Columns {
		blk := pg.blocks[c]
		switch col.Type {
		case IntCol:
			for i, r := range sel {
				out[i][c] = intColCell(blk, r)
			}
		case FloatCol:
			for i, r := range sel {
				out[i][c] = floatColCell(blk, r)
			}
		default:
			offs, data, err := stringColIndex(blk, pg.nrows)
			if err != nil {
				return nil, err
			}
			for i, r := range sel {
				out[i][c] = string(data[offs[r]:offs[r+1]])
			}
		}
		count(c, len(sel))
	}
	return out, nil
}
