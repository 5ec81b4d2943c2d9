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
// semantics are byte-identical to an open page's. The header's
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

// encode encodes a page's rows into one column-major page blob, straight
// from the vectors: every block's size is known up front, so the blob is
// allocated once, at its final size.
func (binaryCodec) encode(v *pageView) []byte {
	sizes := make([]int, len(v.l.types))
	total := uvarintLen(v.n)
	for c, t := range v.l.types {
		sizes[c] = 1 + 8*v.n
		if t == StringCol {
			sizes[c] = 1
			for i := 0; i < v.n; i++ {
				s := v.strAt(c, i)
				sizes[c] += uvarintLen(len(s)) + len(s)
			}
		}
		total += uvarintLen(sizes[c]) + sizes[c]
	}
	out := binary.AppendUvarint(make([]byte, 0, total), uint64(v.n))
	for _, size := range sizes {
		out = binary.AppendUvarint(out, uint64(size))
	}
	for c, t := range v.l.types {
		out = append(out, colTagFor(t))
		switch t {
		case IntCol:
			for i := 0; i < v.n; i++ {
				out = binary.LittleEndian.AppendUint64(out, uint64(v.intAt(c, i)))
			}
		case FloatCol:
			for i := 0; i < v.n; i++ {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.floatAt(c, i)))
			}
		default:
			for i := 0; i < v.n; i++ {
				out = binary.AppendUvarint(out, uint64(len(v.strAt(c, i))))
			}
			for i := 0; i < v.n; i++ {
				out = append(out, v.strAt(c, i)...)
			}
		}
	}
	return out
}

// uvarintLen is how many bytes binary.AppendUvarint appends for n.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// parsedPage is a parsed page header: the row count plus each column's
// tag-prefixed block, sliced out of the (immutable) page blob without
// copying or decoding any cells.
type parsedPage struct {
	l      *layout
	nrows  int
	blocks [][]byte
}

// parse slices a page blob into its column blocks and validates the
// fixed-width blocks' geometry. String cell boundaries are validated
// lazily by stringColIndex.
func (binaryCodec) parse(l *layout, blob []byte) (parsedPage, error) {
	name, arity := l.name, len(l.types)
	nrows, n := binary.Uvarint(blob)
	if n <= 0 || nrows > uint64(len(blob)) {
		return parsedPage{}, fmt.Errorf("kbase: columnar page for %s: bad row count", name)
	}
	off := n
	lens := make([]int, arity)
	for c := 0; c < arity; c++ {
		size, n := binary.Uvarint(blob[off:])
		if n <= 0 || size > uint64(len(blob)) {
			return parsedPage{}, fmt.Errorf("kbase: columnar page for %s: bad block length for column %d", name, c)
		}
		lens[c] = int(size)
		off += n
	}
	pg := parsedPage{l: l, nrows: int(nrows), blocks: make([][]byte, arity)}
	for c := 0; c < arity; c++ {
		if lens[c] > len(blob)-off {
			return parsedPage{}, fmt.Errorf("kbase: columnar page for %s: column %d block truncated", name, c)
		}
		pg.blocks[c] = blob[off : off+lens[c]]
		off += lens[c]
	}
	if off != len(blob) {
		return parsedPage{}, fmt.Errorf("kbase: columnar page for %s: %d trailing bytes", name, len(blob)-off)
	}
	for c, t := range l.types {
		blk := pg.blocks[c]
		if len(blk) == 0 || blk[0] != colTagFor(t) {
			return parsedPage{}, fmt.Errorf("kbase: columnar page for %s: column %d tag mismatch", name, c)
		}
		if t != StringCol && len(blk) != 1+8*pg.nrows {
			return parsedPage{}, fmt.Errorf("kbase: columnar page for %s: column %d block is %d bytes, want %d", name, c, len(blk), 1+8*pg.nrows)
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

// decode materializes every row of a page — the full decode behind the
// decoded-page cache and delete rewrites — and reports the decoded cells
// to count.
func (c binaryCodec) decode(l *layout, page []byte, count func(col, cells int)) (pageView, error) {
	pg, err := c.parse(l, page)
	if err != nil {
		return pageView{}, err
	}
	return pg.rows(pg.all(), count)
}

// all returns every row position of the page, ascending.
func (pg parsedPage) all() []int {
	sel := make([]int, pg.nrows)
	for r := range sel {
		sel[r] = r
	}
	return sel
}

// writeTSV renders the page's rows straight from the column blocks, no
// tuple built: stored cells are bit-exact (raw int64/float64 bits, raw
// string bytes), so this emits the bytes pageView.appendTSV emits for the
// same rows.
func (bc binaryCodec) writeTSV(w io.Writer, l *layout, page []byte) error {
	pg, err := bc.parse(l, page)
	if err != nil {
		return err
	}
	offs, data := make([][]int, len(pg.blocks)), make([][]byte, len(pg.blocks))
	for c, t := range l.types {
		if t == StringCol {
			if offs[c], data[c], err = stringColIndex(pg.blocks[c], pg.nrows); err != nil {
				return err
			}
		}
	}
	buf := make([]byte, 0, len(page)) // a rendered page is about its encoded size
	for r := 0; r < pg.nrows; r++ {
		for c, t := range l.types {
			if c > 0 {
				buf = append(buf, '\t')
			}
			switch t {
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
func (pg parsedPage) cellPred(p compiledPred) (func(row int) bool, error) {
	blk := pg.blocks[p.col]
	switch pg.l.types[p.col] {
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
func (pg parsedPage) match(m matcher, count func(col, cells int)) ([]int, error) {
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

// rows materializes the given (ascending) row positions as a page of
// their own, decoding each column only at those positions — the lazy
// half of a filtered read, and with every position the full decode — and
// reports the decoded cells to count. A string column's dictionary is its
// cells in order, boxed in one allocation.
func (pg parsedPage) rows(sel []int, count func(col, cells int)) (pageView, error) {
	v := pageView{l: pg.l, colPage: pg.l.newPage(len(sel)), n: len(sel), dicts: make([]dict, pg.l.width[StringCol])}
	for c, t := range pg.l.types {
		blk, at := pg.blocks[c], pg.l.slot[c]*v.rows
		switch t {
		case IntCol:
			for k, r := range sel {
				v.ints[at+k] = intColCell(blk, r)
			}
		case FloatCol:
			for k, r := range sel {
				v.floats[at+k] = floatColCell(blk, r)
			}
		default:
			offs, data, err := stringColIndex(blk, pg.nrows)
			if err != nil {
				return pageView{}, err
			}
			strs, vals := make([]string, len(sel)), make([]any, len(sel))
			if len(sel) > 0 {
				// The cells are cut from one string: the bytes from the
				// first selected cell to the last.
				base := offs[sel[0]]
				span := string(data[base:offs[sel[len(sel)-1]+1]])
				for k, r := range sel {
					strs[k] = span[offs[r]-base : offs[r+1]-base]
					vals[k], v.ids[at+k] = stringBox(&strs[k]), uint32(k)
				}
			}
			v.dicts[pg.l.slot[c]].vals = vals
		}
		count(c, len(sel))
	}
	return v, nil
}
