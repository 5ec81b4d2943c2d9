package datamodel

import (
	"fmt"
	"strings"
)

// Span is a contiguous run of words within a single Sentence. Spans are
// the unit of mention extraction: matchers accept spans, and candidates
// are tuples of spans. The half-open interval [Start, End) indexes the
// sentence's Words slice.
type Span struct {
	Sentence *Sentence
	Start    int
	End      int
}

// Words returns the covered words.
func (s Span) Words() []string { return s.Sentence.Words[s.Start:s.End] }

// Text returns the covered words joined by single spaces.
func (s Span) Text() string { return strings.Join(s.Words(), " ") }

// Lemmas returns the covered lemmas (empty if not computed).
func (s Span) Lemmas() []string {
	if len(s.Sentence.Lemmas) < s.End {
		return nil
	}
	return s.Sentence.Lemmas[s.Start:s.End]
}

// Len returns the number of covered words.
func (s Span) Len() int { return s.End - s.Start }

// Doc returns the document containing the span.
func (s Span) Doc() *Document { return s.Sentence.Doc }

// Cell returns the containing table cell, or nil.
func (s Span) Cell() *Cell { return s.Sentence.Cell() }

// Table returns the containing table, or nil.
func (s Span) Table() *Table { return s.Sentence.Table() }

// InTable reports whether the span lives inside a table.
func (s Span) InTable() bool { return s.Sentence.InTable() }

// Page returns the page of the span's first word, or -1 without visuals.
func (s Span) Page() int {
	if len(s.Sentence.PageNums) <= s.Start {
		return -1
	}
	return s.Sentence.PageNums[s.Start]
}

// HasVisual reports whether bounding boxes are available for the span.
func (s Span) HasVisual() bool { return s.Sentence.HasVisual() }

// BoundingBox returns the union of the covered words' boxes.
func (s Span) BoundingBox() Box {
	if !s.HasVisual() {
		return Box{}
	}
	b := s.Sentence.Boxes[s.Start]
	for _, o := range s.Sentence.Boxes[s.Start+1 : s.End] {
		b = b.Union(o)
	}
	return b
}

// Equal reports whether two spans cover the same words of the same
// sentence.
func (s Span) Equal(o Span) bool {
	return s.Sentence == o.Sentence && s.Start == o.Start && s.End == o.End
}

// Key returns a string that uniquely identifies the span within its
// corpus (document name, sentence position, word interval).
func (s Span) Key() string {
	return fmt.Sprintf("%s:%d:%d-%d", s.Sentence.Doc.Name, s.Sentence.Position, s.Start, s.End)
}

// String implements fmt.Stringer.
func (s Span) String() string { return fmt.Sprintf("Span(%q @ %s)", s.Text(), s.Key()) }

// AllSpans enumerates every span of length 1..maxLen over the sentence,
// in order of start position then length.
func AllSpans(sent *Sentence, maxLen int) []Span {
	if maxLen <= 0 {
		maxLen = 1
	}
	var out []Span
	for start := 0; start < len(sent.Words); start++ {
		for l := 1; l <= maxLen && start+l <= len(sent.Words); l++ {
			out = append(out, Span{Sentence: sent, Start: start, End: start + l})
		}
	}
	return out
}
