package kbase

import (
	"fmt"
	"strings"
)

// escapeTSV and encodeTupleTSV are the TSV row renderer as it was before
// rows were appended into one buffer: fmt.Sprint per cell, a builder per
// escaped field, strings.Join per row. They are the oracle
// appendTupleTSV, writeRowsTSV and the page renderer must match byte for
// byte (FuzzTSVRoundTrip, FuzzColumnarPageRoundTrip,
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
