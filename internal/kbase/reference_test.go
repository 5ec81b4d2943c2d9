package kbase

import (
	"fmt"
	"strings"
)

// escapeTSV and encodeTupleTSV are the TSV row renderer as it was before
// rows were appended into one buffer: fmt.Sprint per cell, a builder per
// escaped field, strings.Join per row. They are the oracle both page
// renderers — an open page's appendTSV and a sealed page's writeTSV —
// must match byte for byte (FuzzTSVRoundTrip, FuzzColumnarPageRoundTrip,
// TestEngineRandomHistories).
const tsvEscapes = "\\\t\n\r"

func escapeTSV(s string) string {
	if !strings.ContainsAny(s, tsvEscapes) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\t':
			sb.WriteString(`\t`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

func encodeTupleTSV(tp Tuple) string {
	parts := make([]string, len(tp))
	for i, v := range tp {
		parts[i] = escapeTSV(fmt.Sprint(v))
	}
	return strings.Join(parts, "\t")
}

// referencePageZone is buildPageZone as it was before cells were compared
// from a stack buffer: every cell rendered to a string of its own, rows
// outermost. It is the oracle buildPageZone must match zone for zone
// (TestPageZoneMatchesReference).
func referencePageZone(schema Schema, rows []Tuple) pageZone {
	pz := make(pageZone, schema.Arity())
	seen := make([]bool, len(pz))
	for i := range pz {
		pz[i].maxOK = true
	}
	for _, tp := range rows {
		for c := range pz {
			z := &pz[c]
			v := renderCell(tp[c])
			truncated := false
			if len(v) > zoneValueCap {
				v = v[:zoneValueCap]
				truncated = true
			}
			if !seen[c] {
				seen[c] = true
				z.min, z.max = v, v
			} else {
				if v < z.min {
					z.min = v
				}
				if v > z.max {
					z.max = v
				}
			}
			if truncated {
				z.maxOK = false
				z.overflow = true
				z.distinct = nil
				continue
			}
			if z.overflow {
				continue
			}
			found := false
			for _, d := range z.distinct {
				if d == v {
					found = true
					break
				}
			}
			if !found {
				if len(z.distinct) >= zoneDistinctCap {
					z.overflow = true
					z.distinct = nil
				} else {
					z.distinct = append(z.distinct, v)
				}
			}
		}
	}
	return pz
}
