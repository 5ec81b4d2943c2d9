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
// per-column block lengths delimit the blocks, so parse slices a blob
// into its columns without reading a cell.
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
	pg := parsedPage{nrows: int(nrows), blocks: make([][]byte, arity)}
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

// decode materializes every row of a page as a page of its own — the
// decode behind the decoded-page cache and delete rewrites. A string
// column's dictionary is its cells in order, cut from one string and
// boxed in one allocation.
func (bc binaryCodec) decode(l *layout, page []byte) (pageView, error) {
	pg, err := bc.parse(l, page)
	if err != nil {
		return pageView{}, err
	}
	n := pg.nrows
	v := pageView{l: l, colPage: l.newPage(n), n: n, dicts: make([]dict, l.width[StringCol])}
	for c, t := range l.types {
		blk, at := pg.blocks[c], l.slot[c]*n
		switch t {
		case IntCol:
			for r := 0; r < n; r++ {
				v.ints[at+r] = intColCell(blk, r)
			}
		case FloatCol:
			for r := 0; r < n; r++ {
				v.floats[at+r] = floatColCell(blk, r)
			}
		default:
			offs, data, err := stringColIndex(blk, n)
			if err != nil {
				return pageView{}, err
			}
			span, strs, vals := string(data), make([]string, n), make([]any, n)
			for r := range strs {
				strs[r] = span[offs[r]:offs[r+1]]
				vals[r], v.ids[at+r] = stringBox(&strs[r]), uint32(r)
			}
			v.dicts[l.slot[c]].vals = vals
		}
	}
	return v, nil
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
