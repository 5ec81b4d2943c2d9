package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/candidates"
	"repro/internal/kbase"
)

// The /kb and /candidates bodies are appended, not marshalled: the
// served schema fixes the type of every cell, so they are written
// straight into a pooled buffer, key by key, in the bytes writeJSON
// (encoding/json with SetEscapeHTML(false)) writes for the same payload
// — sorted map keys, struct fields in declaration order, its string
// escaping and float formatting, a trailing newline. FuzzReadBody pins
// the two byte for byte.

// maxPooledBody is the largest buffer returned to bodyPool: a rare
// whole-table export must not pin its buffer in every pooled slot.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody answers 200 with the body that appendBody appends to a
// pooled buffer, its length in Content-Length, in one Write. A body that
// cannot be encoded — a NaN or infinite float, which JSON has no number
// for — is answered as writeJSON answers it: status 200, no body, and
// counted as an encode failure.
func writeBody(w http.ResponseWriter, appendBody func([]byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	b, err := appendBody((*bp)[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if err == nil {
		h.Set("Content-Length", strconv.Itoa(len(b)))
	}
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, err = w.Write(b)
	}
	if err != nil {
		countRespErr(http.StatusOK, err)
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// appendKB appends the /kb body for one page of a relation's tuples,
// each cell by its schema column's type (a table hands out no other, so
// a cell of another type is a bug, and its panic a 500).
func appendKB(b []byte, epoch, generation uint64, relation string, schema kbase.Schema, page []kbase.Tuple, total, offset int) (_ []byte, err error) {
	b = append(b, `{"columns":[`...)
	for i, c := range schema.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, c.Name)
	}
	b = append(b, `],"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, generation, 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"relation":`...)
	b = appendJSONString(b, relation)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"tuples":[`...)
	for i, t := range page {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, cell := range t {
			if j > 0 {
				b = append(b, ',')
			}
			switch schema.Columns[j].Type {
			case kbase.StringCol:
				b = appendJSONString(b, cell.(string))
			case kbase.IntCol:
				b = strconv.AppendInt(b, cell.(int64), 10)
			case kbase.FloatCol:
				if b, err = appendJSONFloat(b, cell.(float64)); err != nil {
					return b, err
				}
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}\n"...), nil
}

// appendCandidates appends the /candidates body: the window
// [offset, offset+limit) (limit 0: to the end) of the candidates of
// document doc ("" for every document), each with its marginal, its
// votes (nil is null) and its mentions. Candidates come first in key
// order, so one pass writes the window and counts the total.
func appendCandidates(b []byte, epoch uint64, cands []*candidates.Candidate, marginals []float64, votes func(int) []int8, doc string, offset, limit int) (_ []byte, err error) {
	b = append(b, `{"candidates":[`...)
	total := 0
	for i, c := range cands {
		if doc != "" && c.Doc().Name != doc {
			continue
		}
		k := total
		total++
		if k < offset || (limit > 0 && k-offset >= limit) {
			continue
		}
		if k > offset {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(c.ID), 10)
		b = append(b, `,"doc":`...)
		b = appendJSONString(b, c.Doc().Name)
		b = append(b, `,"values":[`...)
		for j, m := range c.Mentions {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendJSONWords(b, m.Span.Words())
		}
		b = append(b, `],"marginal":`...)
		if b, err = appendJSONFloat(b, marginals[i]); err != nil {
			return b, err
		}
		b = append(b, `,"votes":`...)
		if vs := votes(i); vs == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, v := range vs {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(v), 10)
			}
			b = append(b, ']')
		}
		// A candidate has at least one mention: Doc is its first one's.
		b = append(b, `,"mentions":[`...)
		for j, m := range c.Mentions {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"type":`...)
			b = appendJSONString(b, m.TypeName)
			b = append(b, `,"sentence":`...)
			b = strconv.AppendInt(b, int64(m.Span.Sentence.Position), 10)
			b = append(b, `,"start":`...)
			b = strconv.AppendInt(b, int64(m.Span.Start), 10)
			b = append(b, `,"end":`...)
			b = strconv.AppendInt(b, int64(m.Span.End), 10)
			b = append(b, `,"text":`...)
			b = appendJSONWords(b, m.Span.Words())
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	b = append(b, `],"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(min(offset, total)), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: like
// strconv's shortest 'f' form, or 'e' below 1e-6 and from 1e21 on with
// a one-digit negative exponent unpadded. NaN and ±Inf are an error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s as a JSON string.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	return append(appendEscaped(b, s), '"')
}

// appendJSONWords appends words joined by single spaces as one JSON
// string — a span's Text without building it. A space is never part of
// an escape or of a multi-byte sequence, so escaping word by word is
// escaping the joined text.
func appendJSONWords(b []byte, words []string) []byte {
	b = append(b, '"')
	for i, w := range words {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendEscaped(b, w)
	}
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// plainByte marks the bytes a JSON string carries as they are: ASCII
// from the space on, but for '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendEscaped appends s escaped as encoding/json escapes a string
// without HTML escaping: '"' and '\\' backslashed, control bytes as
// \b \f \n \r \t or \u00XX, each byte of invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 as \u2028 and \u2029.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainByte[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
