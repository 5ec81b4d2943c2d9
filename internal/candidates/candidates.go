// Package candidates implements Fonduer's candidate generation phase
// (Section 4.1): applying mention matchers to the leaves of the data
// model, forming relation candidates as the cross-product of mention
// sets within a context scope, and pruning the combinatorial explosion
// with user-provided throttlers.
package candidates

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datamodel"
	"repro/internal/matchers"
)

// Mention is a typed span: one argument of a relation candidate.
type Mention struct {
	// TypeName is the schema type the mention instantiates (e.g.
	// "TransistorPart").
	TypeName string
	Span     datamodel.Span
}

// Candidate is an n-ary tuple of mentions that may express a relation.
type Candidate struct {
	// ID is assigned densely by the Extractor within a run; it indexes
	// the Features and Labels matrices.
	ID       int
	Mentions []Mention
}

// Doc returns the document the candidate is drawn from.
func (c *Candidate) Doc() *datamodel.Document { return c.Mentions[0].Span.Doc() }

// Key uniquely identifies the candidate by its mention spans.
func (c *Candidate) Key() string {
	parts := make([]string, len(c.Mentions))
	for i, m := range c.Mentions {
		parts[i] = m.TypeName + "=" + m.Span.Key()
	}
	return strings.Join(parts, "|")
}

// Values returns the mention texts in schema order — the tuple that
// enters the knowledge base if the candidate is classified true.
func (c *Candidate) Values() []string {
	out := make([]string, len(c.Mentions))
	for i, m := range c.Mentions {
		out[i] = m.Span.Text()
	}
	return out
}

// String implements fmt.Stringer.
func (c *Candidate) String() string {
	return fmt.Sprintf("Candidate(%s)", strings.Join(c.Values(), ", "))
}

// Throttler is a hard filtering rule over candidates (Example 3.4):
// it reports whether the candidate should be kept. Throttlers trade
// recall for precision and scalability.
//
// The pipeline extracts documents concurrently by default
// (core.Options.Workers), so throttlers must be safe for concurrent
// calls — in practice, pure functions of their candidate. A stateful
// throttler requires Workers = 1.
type Throttler func(*Candidate) bool

// Scope limits how far apart a candidate's mentions may be — the
// context-scope knob of the Figure 6 ablation.
type Scope int

// Context scopes. DocumentScope — Fonduer's default — is the zero
// value; the others restrict candidates to increasingly local contexts
// (the Figure 6 knob).
const (
	DocumentScope Scope = iota
	SentenceScope
	TableScope
	PageScope
)

// String returns the scope's name.
func (s Scope) String() string {
	switch s {
	case SentenceScope:
		return "sentence"
	case TableScope:
		return "table"
	case PageScope:
		return "page"
	case DocumentScope:
		return "document"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// inScope reports whether all mentions fall within one context of the
// given scope. SentenceScope requires one shared sentence; TableScope
// one shared table (mirroring table-bound IE systems); PageScope one
// rendered page; DocumentScope always holds.
func inScope(ms []Mention, scope Scope) bool {
	if len(ms) <= 1 {
		return true
	}
	first := ms[0].Span
	for _, m := range ms[1:] {
		switch scope {
		case SentenceScope:
			if !datamodel.SameSentence(first, m.Span) {
				return false
			}
		case TableScope:
			if !datamodel.SameTable(first, m.Span) {
				return false
			}
		case PageScope:
			if !datamodel.SamePage(first, m.Span) {
				return false
			}
		case DocumentScope:
			// always in scope
		}
	}
	return true
}

// ArgSpec couples a schema type name with its mention matcher.
type ArgSpec struct {
	TypeName string
	Matcher  matchers.Matcher
	// MaxSpanLen bounds mention length in words (default 3).
	MaxSpanLen int
}

// Extractor generates candidates for one relation.
type Extractor struct {
	// Args are the relation's argument specs, in schema order.
	Args []ArgSpec
	// Scope is the context scope; DocumentScope is Fonduer's default.
	Scope Scope
	// Throttlers prune candidates; all must accept a candidate for it
	// to be kept.
	Throttlers []Throttler
	// MaxPerDoc caps candidates per document as a safety valve against
	// combinatorial explosion (0 = unlimited).
	MaxPerDoc int

	nextID int
}

// Mentions applies each argument's matcher to the document, returning
// per-argument mention lists.
func (e *Extractor) Mentions(d *datamodel.Document) [][]Mention {
	out := make([][]Mention, len(e.Args))
	for i, arg := range e.Args {
		maxLen := arg.MaxSpanLen
		if maxLen <= 0 {
			maxLen = 3
		}
		spans := matchers.Extract(d, arg.Matcher, maxLen)
		ms := make([]Mention, len(spans))
		for j, sp := range spans {
			ms[j] = Mention{TypeName: arg.TypeName, Span: sp}
		}
		out[i] = ms
	}
	return out
}

// Extract generates the candidates of one document: the cross-product
// of the per-argument mention sets, restricted to the context scope,
// filtered by the throttlers, in deterministic document order.
func (e *Extractor) Extract(d *datamodel.Document) []*Candidate {
	mentionSets := e.Mentions(d)
	for _, set := range mentionSets {
		if len(set) == 0 {
			return nil
		}
	}
	var out []*Candidate
	idx := make([]int, len(mentionSets))
	for {
		ms := make([]Mention, len(mentionSets))
		for i, j := range idx {
			ms[i] = mentionSets[i][j]
		}
		if inScope(ms, e.Scope) {
			c := &Candidate{Mentions: ms}
			if e.keep(c) {
				c.ID = e.nextID
				e.nextID++
				out = append(out, c)
				if e.MaxPerDoc > 0 && len(out) >= e.MaxPerDoc {
					return out
				}
			}
		}
		// Advance the odometer.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(mentionSets[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out
}

func (e *Extractor) keep(c *Candidate) bool {
	for _, t := range e.Throttlers {
		if !t(c) {
			return false
		}
	}
	return true
}

// ExtractAll runs Extract over a corpus, returning all candidates with
// dense IDs in corpus order.
func (e *Extractor) ExtractAll(docs []*datamodel.Document) []*Candidate {
	var out []*Candidate
	for _, d := range docs {
		out = append(out, e.Extract(d)...)
	}
	return out
}

// Reset restarts dense ID assignment (for a fresh extraction run).
func (e *Extractor) Reset() { e.nextID = 0 }

// SortByKey orders candidates deterministically by their span keys;
// used to make experiment output stable across runs.
func SortByKey(cands []*Candidate) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].Key() < cands[j].Key() })
}
