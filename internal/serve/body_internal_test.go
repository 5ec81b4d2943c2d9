package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/kbase"
)

// The /kb and /candidates payloads as handleKB and handleCandidates
// built them for writeJSON before the bodies were appended: the
// reference FuzzReadBody holds appendKB and appendCandidates to.

type mentionJSON struct {
	Type     string `json:"type"`
	Sentence int    `json:"sentence"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Text     string `json:"text"`
}

type candidateJSON struct {
	ID       int           `json:"id"`
	Doc      string        `json:"doc"`
	Values   []string      `json:"values"`
	Marginal float64       `json:"marginal"`
	Votes    []int8        `json:"votes"`
	Mentions []mentionJSON `json:"mentions"`
}

func kbPayload(epoch, generation uint64, relation string, schema kbase.Schema, page []kbase.Tuple, total, offset int) any {
	if page == nil {
		page = []kbase.Tuple{}
	}
	cols := make([]string, schema.Arity())
	for i, c := range schema.Columns {
		cols[i] = c.Name
	}
	return map[string]any{
		"epoch":      epoch,
		"generation": generation,
		"relation":   relation,
		"columns":    cols,
		"total":      total,
		"offset":     min(offset, total),
		"tuples":     page,
	}
}

func candidatesPayload(epoch uint64, cands []*candidates.Candidate, marginals []float64, votes func(int) []int8, doc string, offset, limit int) any {
	var sel []int
	for i, c := range cands {
		if doc == "" || c.Doc().Name == doc {
			sel = append(sel, i)
		}
	}
	lo, hi := pageBounds(len(sel), offset, limit)
	out := make([]candidateJSON, 0, hi-lo)
	for _, i := range sel[lo:hi] {
		c := cands[i]
		cj := candidateJSON{ID: c.ID, Doc: c.Doc().Name, Values: c.Values(), Marginal: marginals[i], Votes: votes(i)}
		for _, m := range c.Mentions {
			cj.Mentions = append(cj.Mentions, mentionJSON{
				Type: m.TypeName, Sentence: m.Span.Sentence.Position,
				Start: m.Span.Start, End: m.Span.End, Text: m.Span.Text(),
			})
		}
		out = append(out, cj)
	}
	return map[string]any{"epoch": epoch, "total": len(sel), "offset": lo, "candidates": out}
}

// encodeRef is writeJSON's encoding of v: the bytes, or its error.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// fuzzStrings, fuzzInts and fuzzFloats are the hard cells every fuzz
// input draws from beside its own: quotes, backslashes, every escaped
// control byte, DEL, invalid UTF-8 (lone, truncated and overlong
// sequences), U+2028/2029, the HTML bytes encoding/json leaves alone
// here, signed zeros, the 'e'-format cut-offs and extreme ints; NaN and
// the infinities must fail on both sides.
var (
	fuzzStrings = []string{
		"", "part", `q"uote`, `back\slash`, "\x00\x01\x08\x09\x0a\x0c\x0d\x1b\x1f\x7f",
		"\xff", "\xe2\x80", "\xc0\xaf", "a b c", "<a href=\"x\">&amp;</a>",
		"日本語 ünïcode", "\ufffd", "\u2028 line \u2029 para", "two words",
	}
	fuzzInts   = []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64}
	fuzzFloats = []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		0.1, 123.456, 5e-324, math.MaxFloat64, 1e-10, 0.5,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

// FuzzReadBody holds the appended /kb and /candidates bodies to
// writeJSON's bytes for the payloads the handlers used to marshal: a
// random schema of string, int and float columns with random tuples,
// and random candidates over random documents, sentences, votes and
// marginals, under a random document filter and window. shape drives
// every choice; s, n and x join the hard cells above.
func FuzzReadBody(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 5, 7, 9, 11, 13, 2, 4, 6, 8}, "x", int64(42), 3.25, uint64(7), uint8(1), uint8(0))
	f.Add([]byte{2, 2, 2, 15, 16, 17, 1, 2, 3}, " ", int64(-9), 1e21, uint64(0), uint8(0), uint8(3))
	f.Add([]byte{4, 0, 0, 0, 0, 3, 4, 5, 6, 9, 10, 11, 12, 200, 201, 202}, "\xff<&>", int64(math.MinInt64), -0.0, uint64(1<<40), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, shape []byte, s string, n int64, x float64, epoch uint64, offset, limit uint8) {
		strs := append([]string{s}, fuzzStrings...)
		ints := append([]int64{n}, fuzzInts...)
		floats := append([]float64{x}, fuzzFloats...)
		pos := 0
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[pos%len(shape)]
			pos++
			return int(b)
		}
		pickString := func() string { return strs[next()%len(strs)] }

		// ---- /kb: a schema of 1–4 columns and up to 8 tuples.
		schema := kbase.Schema{Name: pickString()}
		for i := 0; i < 1+next()%4; i++ {
			schema.Columns = append(schema.Columns, kbase.Column{Name: pickString(), Type: kbase.ColType(next() % 3)})
		}
		var page []kbase.Tuple
		for i := 0; i < next()%9; i++ {
			tp := make(kbase.Tuple, schema.Arity())
			for j, c := range schema.Columns {
				switch c.Type {
				case kbase.StringCol:
					tp[j] = pickString()
				case kbase.IntCol:
					tp[j] = ints[next()%len(ints)]
				case kbase.FloatCol:
					tp[j] = floats[next()%len(floats)]
				}
			}
			page = append(page, tp)
		}
		total := len(page) + next()%3
		relation := pickString()
		got, gotErr := appendKB(nil, epoch, uint64(n), relation, schema, page, total, min(int(offset), total))
		want, wantErr := encodeRef(kbPayload(epoch, uint64(n), relation, schema, page, total, int(offset)))
		compareBodies(t, "/kb", got, gotErr, want, wantErr)

		// ---- /candidates: up to 6 candidates of 1–3 mentions over 1–3
		// documents.
		var docs []*datamodel.Document
		for i := 0; i < 1+next()%3; i++ {
			docs = append(docs, &datamodel.Document{Name: pickString()})
		}
		var cands []*candidates.Candidate
		var marginals []float64
		var votes [][]int8
		for i := 0; i < next()%7; i++ {
			doc := docs[next()%len(docs)]
			c := &candidates.Candidate{ID: next()}
			for j := 0; j < 1+next()%3; j++ {
				words := make([]string, next()%4)
				for k := range words {
					words[k] = pickString()
				}
				sent := &datamodel.Sentence{Doc: doc, Position: next(), Words: words}
				start := 0
				if len(words) > 0 {
					start = next() % len(words)
				}
				c.Mentions = append(c.Mentions, candidates.Mention{
					TypeName: pickString(),
					Span:     datamodel.Span{Sentence: sent, Start: start, End: start + next()%(len(words)-start+1)},
				})
			}
			cands = append(cands, c)
			marginals = append(marginals, floats[next()%len(floats)])
			var vs []int8 // nil, empty or 1–3 votes
			if k := next() % 5; k > 0 {
				vs = make([]int8, k-1)
				for j := range vs {
					vs[j] = int8(next()%3 - 1)
				}
			}
			votes = append(votes, vs)
		}
		voteOf := func(i int) []int8 { return votes[i] }
		filter := ""
		if k := next() % (len(docs) + 1); k > 0 {
			filter = docs[k-1].Name
		}
		got, gotErr = appendCandidates(nil, epoch, cands, marginals, voteOf, filter, int(offset%8), int(limit%8))
		want, wantErr = encodeRef(candidatesPayload(epoch, cands, marginals, voteOf, filter, int(offset%8), int(limit%8)))
		compareBodies(t, "/candidates", got, gotErr, want, wantErr)
	})
}

// compareBodies fails unless the appended body equals the reference's
// bytes, or both failed.
func compareBodies(t *testing.T, route string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case (gotErr != nil) != (wantErr != nil):
		t.Fatalf("%s: appended error %v, encoding/json error %v", route, gotErr, wantErr)
	case gotErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: appended body differs from encoding/json's\n got: %q\nwant: %q", route, got, want)
	}
}

// TestReadBodyNaNAnsweredAsWriteJSON: a body that cannot be encoded is
// answered as writeJSON answers it — status 200, no body, one encode
// failure counted — and a write the client never receives is counted
// as a write failure.
func TestReadBodyNaNAnsweredAsWriteJSON(t *testing.T) {
	schema := kbase.Schema{Name: "r", Columns: []kbase.Column{{Name: "x", Type: kbase.FloatCol}}}
	page := []kbase.Tuple{{math.NaN()}}
	encBefore, wrBefore := respErrEncode.Load(), respErrWrite.Load()
	rec := httptest.NewRecorder()
	writeBody(rec, func(b []byte) ([]byte, error) { return appendKB(b, 1, 0, "r", schema, page, 1, 0) })
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("NaN body: status %d, %d body bytes, Content-Length %q", rec.Code, rec.Body.Len(), rec.Header().Get("Content-Length"))
	}
	if got := respErrEncode.Load() - encBefore; got != 1 {
		t.Fatalf("encode error counter advanced by %d, want 1", got)
	}

	page[0][0] = 0.5
	writeBody(failingWriter{httptest.NewRecorder()}, func(b []byte) ([]byte, error) { return appendKB(b, 1, 0, "r", schema, page, 1, 0) })
	if got := respErrWrite.Load() - wrBefore; got != 1 {
		t.Fatalf("write error counter advanced by %d, want 1", got)
	}

	rec = httptest.NewRecorder()
	writeBody(rec, func(b []byte) ([]byte, error) { return appendKB(b, 1, 0, "r", schema, page, 1, 0) })
	want, _ := encodeRef(kbPayload(1, 0, "r", schema, page, 1, 0))
	if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("body %q with Content-Length %q, want %q", rec.Body, rec.Header().Get("Content-Length"), want)
	}
}
