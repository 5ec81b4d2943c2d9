package kbase

import (
	"strconv"
	"unsafe"
)

// layout places a schema's columns in a page: column c is the slot[c]-th
// column of its type, and its cells are the rows-long run at
// slot[c]*rows of the page's vector of that type.
type layout struct {
	name  string // the table's, for errors
	types []ColType
	slot  []int
	width [3]int // columns of each type, indexed by ColType
}

func newLayout(schema Schema) layout {
	l := layout{name: schema.Name, types: make([]ColType, schema.Arity()), slot: make([]int, schema.Arity())}
	for c, col := range schema.Columns {
		t := col.Type
		if t != IntCol && t != FloatCol {
			t = StringCol
		}
		l.types[c], l.slot[c] = t, l.width[t]
		l.width[t]++
	}
	return l
}

// colPage is the one in-memory row form of every storage kind: up to rows
// rows as typed vectors — an integer column as int64s, a float column as
// float64s, a string column as uint32 ids into a dictionary — so a row
// costs its payload, none of it pointers. The columns of one type share
// one vector, allocated at full capacity with the page: an append writes
// cells in place and never reallocates, which is also what lets a reader
// look at the rows below a count it took under the backend's mutex while
// the writer fills the rows above it.
type colPage struct {
	rows   int
	ints   []int64
	floats []float64
	ids    []uint32
}

func (l *layout) newPage(rows int) colPage {
	return colPage{
		rows:   rows,
		ints:   make([]int64, l.width[IntCol]*rows),
		floats: make([]float64, l.width[FloatCol]*rows),
		ids:    make([]uint32, l.width[StringCol]*rows),
	}
}

// dict is one string column's dictionary: it numbers distinct values in
// first-seen order. vals keeps each value boxed, so handing a row out
// copies an interface and allocates nothing. The memory kind's open
// pages share one per column for the whole table; every other page has
// its own. Only vals is ever read outside the backend's mutex, and only
// below a length taken under it.
type dict struct {
	vals []any
	idOf map[string]uint32
	// boxes holds the string headers the latest boxes point at, chunk by
	// chunk, so that boxing is one allocation a chunk rather than one a
	// value.
	boxes []string
}

// intern returns the id of s, which joins the dictionary if it is new.
func (d *dict) intern(s string, chunk int) uint32 {
	if id, ok := d.idOf[s]; ok {
		return id
	}
	if len(d.boxes) == cap(d.boxes) {
		d.boxes = make([]string, 0, chunk)
	}
	d.boxes = append(d.boxes, s)
	id := uint32(len(d.vals))
	d.idOf[s] = id
	d.vals = append(d.vals, stringBox(&d.boxes[len(d.boxes)-1]))
	return id
}

// reset empties the dictionary for the next page. Readers may still hold
// the old values, so they are left as they are and a new vector starts.
func (d *dict) reset(size int) {
	d.vals = make([]any, 0, size)
	clear(d.idOf)
}

// stringBox returns *p boxed as a Tuple holds a string, without
// allocating: an interface holding a string is a type word and a pointer
// to the string's header, and this one points at *p, which must never be
// written again.
func stringBox(p *string) any {
	box := any("") // boxing a constant allocates nothing: this supplies the type word
	(*[2]unsafe.Pointer)(unsafe.Pointer(&box))[1] = unsafe.Pointer(p)
	return box
}

// pageView is a page as it is read: its first n rows, whose string cells
// are the values dicts[slot] numbers. It is the one thing every read,
// the seal and the snapshot renderer take rows from.
type pageView struct {
	l *layout
	colPage
	n     int
	dicts []dict
}

func (v *pageView) intAt(c, i int) int64     { return v.ints[v.l.slot[c]*v.rows+i] }
func (v *pageView) floatAt(c, i int) float64 { return v.floats[v.l.slot[c]*v.rows+i] }
func (v *pageView) strAt(c, i int) string {
	s := v.l.slot[c]
	return v.dicts[s].vals[v.ids[s*v.rows+i]].(string)
}

// fill writes row i into tp, as a Tuple holds it.
func (v *pageView) fill(tp Tuple, i int) {
	for c, t := range v.l.types {
		s := v.l.slot[c]
		switch at := s*v.rows + i; t {
		case IntCol:
			tp[c] = v.ints[at]
		case FloatCol:
			tp[c] = v.floats[at]
		default:
			tp[c] = v.dicts[s].vals[v.ids[at]]
		}
	}
}

// match reports whether row i satisfies every predicate of m, testing
// each typed cell in place: an integer against the parsed probe
// (compilePreds proved it canonical), a float rendered into a stack
// buffer, a string against the probe.
func (v *pageView) match(m matcher, i int) bool {
	for _, p := range m.preds {
		switch v.l.types[p.col] {
		case IntCol:
			if v.intAt(p.col, i) != p.intVal {
				return false
			}
		case FloatCol:
			var buf [32]byte
			if string(strconv.AppendFloat(buf[:0], v.floatAt(p.col, i), 'g', -1, 64)) != p.want {
				return false
			}
		default:
			if v.strAt(p.col, i) != p.want {
				return false
			}
		}
	}
	return true
}

// appendTSV appends row i in the escaped-TSV row encoding of WriteTSV (no
// trailing newline): each cell as fmt.Sprint renders it, rendered from the
// vectors with no tuple built.
func (v *pageView) appendTSV(dst []byte, i int) []byte {
	for c, t := range v.l.types {
		if c > 0 {
			dst = append(dst, '\t')
		}
		switch t {
		case IntCol:
			dst = strconv.AppendInt(dst, v.intAt(c, i), 10)
		case FloatCol:
			dst = strconv.AppendFloat(dst, v.floatAt(c, i), 'g', -1, 64)
		default:
			dst = appendFieldTSV(dst, v.strAt(c, i))
		}
	}
	return dst
}
