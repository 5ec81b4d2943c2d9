package kbase

import "strconv"

// Zone maps summarize one sealed page's rendered column values so a
// filtered read can prove "no row on this page matches" without
// fetching, decoding, or caching the page. They live in memory only,
// built when a page is sealed and rebuilt by DeleteWhere rewrites. Per
// page and column they hold a lexicographic min/max over the rendered
// values plus — when the page has few enough distinct values — the
// complete distinct set, which turns the conservative range check into
// an exact one.
//
// All bounds are over *rendered* values (renderCell), the same domain
// predicates compare in, so the pruning is sound for every column
// type without any numeric-vs-string ordering subtleties. Oversized
// values are truncated to zoneValueCap bytes: a truncated min is
// still a valid lower bound (a prefix never sorts after the
// original), but a truncated max is not a valid upper bound, so the
// column marks maxOK=false and the upper check is skipped.
const (
	// zoneDistinctCap bounds the per-column distinct set; beyond it the
	// set overflows and only min/max pruning applies.
	zoneDistinctCap = 8
	// zoneValueCap bounds stored value length.
	zoneValueCap = 128
)

// colZone summarizes one column of one page.
type colZone struct {
	min, max string
	// maxOK reports that max is a usable upper bound (no truncation).
	maxOK bool
	// distinct is the complete distinct value set unless overflow.
	distinct []string
	// overflow marks the distinct set incomplete (too many values, or
	// a value too long to store exactly).
	overflow bool
}

// pageZone is one page's zones, one per schema column.
type pageZone []colZone

// buildPageZone summarizes a page's rows, a column at a time, from the
// vectors.
func buildPageZone(v *pageView) pageZone {
	pz := make(pageZone, len(v.l.types))
	var cur, lo, hi [32]byte // the longest int64 is 20 bytes, the longest float64 24
	for c, t := range v.l.types {
		z := &pz[c]
		z.maxOK = true
		if t == StringCol {
			for i := 0; i < v.n; i++ {
				s := v.strAt(c, i)
				if len(s) > zoneValueCap {
					// The truncated prefix stays a valid lower bound but not
					// an upper one, and the distinct set can no longer answer
					// membership exactly.
					s = s[:zoneValueCap]
					z.maxOK, z.overflow, z.distinct = false, true, nil
				}
				if i == 0 || s < z.min {
					z.min = s
				}
				if i == 0 || s > z.max {
					z.max = s
				}
				addDistinct(z, s)
			}
			continue
		}
		// A numeric cell is rendered into cur and compared there; the
		// running bounds live in lo and hi. Only the final min and max and
		// what the distinct set adopts become strings — O(1) a column,
		// where an ascending id column would adopt a new max every row.
		least, most := lo[:0], hi[:0]
		for i := 0; i < v.n; i++ {
			s := cur[:0]
			if t == IntCol {
				s = strconv.AppendInt(s, v.intAt(c, i), 10)
			} else {
				s = strconv.AppendFloat(s, v.floatAt(c, i), 'g', -1, 64)
			}
			if i == 0 || string(s) < string(least) {
				least = append(lo[:0], s...)
			}
			if i == 0 || string(s) > string(most) {
				most = append(hi[:0], s...)
			}
			addDistinct(z, s)
		}
		z.min, z.max = string(least), string(most)
	}
	return pz
}

// addDistinct adds v to z's distinct set, unless that has overflowed or
// overflows now. v is borrowed: compared in place, copied if adopted.
func addDistinct[S string | []byte](z *colZone, v S) {
	if z.overflow {
		return
	}
	for _, d := range z.distinct {
		if d == string(v) {
			return
		}
	}
	if len(z.distinct) >= zoneDistinctCap {
		z.overflow, z.distinct = true, nil
	} else {
		z.distinct = append(z.distinct, string(v))
	}
}

// mayMatch reports whether any row on the page could satisfy the
// compiled conjunction. Conservative: false only when provably no
// row matches.
func (pz pageZone) mayMatch(m matcher) bool {
	for _, p := range m.preds {
		if p.col >= len(pz) {
			continue
		}
		z := pz[p.col]
		if !z.overflow {
			found := false
			for _, d := range z.distinct {
				if d == p.want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
			continue
		}
		if p.want < z.min {
			return false
		}
		if z.maxOK && p.want > z.max {
			return false
		}
	}
	return true
}
