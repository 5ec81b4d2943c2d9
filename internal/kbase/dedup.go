package kbase

import (
	"fmt"
	"math"
	"strconv"
)

// The dedup key of a tuple is its cells rendered as fmt.Sprint renders
// them, joined by NUL bytes. It is never built: hashTuple feeds those
// bytes straight into FNV-1a, and Table.find decides a hash hit cell by
// cell, so ("a\x00b", "c") and ("a", "b\x00c") — equal as joined bytes —
// are different rows.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd continues the FNV-1a hash h over the bytes of s.
func fnvAdd[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashKey is the FNV-1a hash of a rendered value (the column indexes'
// posting key).
func hashKey(k string) uint64 { return fnvAdd(fnvOffset64, k) }

// dedupHashMask narrows the dedup hash; a var so tests can force
// collision chains.
var dedupHashMask = ^uint64(0)

// hashTuple hashes a tuple's dedup key. An int hashes as the int64 it
// is stored as, so a tuple hashes the same before and after
// normalization.
func hashTuple(tp Tuple) uint64 {
	h := uint64(fnvOffset64)
	var buf [32]byte // the longest int64 is 20 bytes, the longest float64 24
	for i, v := range tp {
		if i > 0 {
			h *= fnvPrime64 // the NUL separator: h ^ 0 is h
		}
		switch x := v.(type) {
		case string:
			h = fnvAdd(h, x)
		case int64:
			h = fnvAdd(h, strconv.AppendInt(buf[:0], x, 10))
		case int:
			h = fnvAdd(h, strconv.AppendInt(buf[:0], int64(x), 10))
		case float64:
			h = fnvAdd(h, strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
		default:
			h = fnvAdd(h, fmt.Sprint(v))
		}
	}
	return h & dedupHashMask
}

// floatsEqual reports whether two floats render alike: the shortest
// round-trip rendering is injective except that every NaN renders
// "NaN"; -0 renders "-0".
func floatsEqual(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// dedupIndex is a Table's set-membership index: an open-addressed,
// linearly probed table from tuple hash to row position. A slot packs a
// 32-bit tag of the hash above the position plus one; 0 is an empty
// slot. The tag alone places a slot, so the index grows without
// rehashing a row. It grows by two fifths at a load of 3/4: a table of
// distinct rows keeps it above 15/28 full, under 15 bytes per
// row, none of them pointers. Nothing is ever removed: a delete re-packs
// positions and the table rebuilds the index.
type dedupIndex struct {
	slots []uint64
	n     int // occupied slots
}

// maxDedupPos is the largest row position a slot can hold.
const maxDedupPos = math.MaxUint32 - 1

// dedupTag is the 32-bit slot tag of a hash. FNV-1a's high bits barely
// depend on a key's last bytes, so the hash is remixed (Fibonacci
// hashing) before its top half is taken.
func dedupTag(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> 32 }

// home is the slot a tag probes first: the tag scaled to the table.
func (d *dedupIndex) home(tag uint64) int { return int(tag * uint64(len(d.slots)) >> 32) }

// reserve makes room for extra more rows.
func (d *dedupIndex) reserve(extra int) {
	need := (d.n+extra)/3*4 + 4 // slots that hold n+extra rows at a load of 3/4
	if need <= len(d.slots) {
		return
	}
	old := d.slots
	d.slots = make([]uint64, max(need, len(old)/5*7))
	for _, s := range old {
		if s != 0 {
			d.place(s)
		}
	}
}

// place stores a slot value at the first free slot from its home.
func (d *dedupIndex) place(s uint64) {
	i := d.home(s >> 32)
	for d.slots[i] != 0 {
		if i++; i == len(d.slots) {
			i = 0
		}
	}
	d.slots[i] = s
}

// add records that the row at pos has hash h.
func (d *dedupIndex) add(h uint64, pos int) {
	d.reserve(1)
	d.place(dedupTag(h)<<32 | uint64(pos+1))
	d.n++
}

// remove takes back the most recent add that has not been removed yet:
// its slot was free when it was placed and nothing has been placed
// since, so clearing it restores the table as it was.
func (d *dedupIndex) remove(h uint64, pos int) {
	s := dedupTag(h)<<32 | uint64(pos+1)
	i := d.home(s >> 32)
	for d.slots[i] != s {
		if i++; i == len(d.slots) {
			i = 0
		}
	}
	d.slots[i] = 0
	d.n--
}
