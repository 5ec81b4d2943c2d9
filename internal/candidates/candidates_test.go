package candidates

import (
	"strings"
	"testing"

	"repro/internal/datamodel"
	"repro/internal/matchers"
)

// buildDoc creates a two-page document: a header with part names on
// page 0, and a table on page 1 with two numeric values.
func buildDoc(t *testing.T) *datamodel.Document {
	t.Helper()
	b := datamodel.NewBuilder("doc1", "pdf")
	hdr := b.AddText()
	p := b.AddParagraph(hdr)
	s := b.AddSentence(p, []string{"SMBT3904", "and", "MMBT3904"})
	s.PageNums = []int{0, 0, 0}
	s.Boxes = []datamodel.Box{{X0: 10, Y0: 10, X1: 40, Y1: 14}, {X0: 41, Y0: 10, X1: 45, Y1: 14}, {X0: 46, Y0: 10, X1: 76, Y1: 14}}

	tbl := b.AddTable()
	b.AddRow(tbl)
	b.AddRow(tbl)
	hc := b.AddCell(tbl, 0, 0, 0, 0)
	hp := b.AddParagraph(hc)
	hs := b.AddSentence(hp, []string{"Value"})
	hs.PageNums = []int{1}
	hs.Boxes = []datamodel.Box{{X0: 10, Y0: 20, X1: 20, Y1: 24}}
	for i, v := range []string{"200", "330"} {
		c := b.AddCell(tbl, 1, 1, i, i)
		cp := b.AddParagraph(c)
		cs := b.AddSentence(cp, []string{v})
		cs.PageNums = []int{1}
		cs.Boxes = []datamodel.Box{{X0: float64(10 + 20*i), Y0: 30, X1: float64(19 + 20*i), Y1: 34}}
	}
	return b.Finish()
}

func partArg() ArgSpec {
	return ArgSpec{TypeName: "Part", Matcher: matchers.MustRegex(`[SM]MBT[0-9]{4}`)}
}

func currentArg() ArgSpec {
	return ArgSpec{TypeName: "Current", Matcher: matchers.NumberRange{Min: 100, Max: 995}}
}

func TestExtractDocumentScope(t *testing.T) {
	d := buildDoc(t)
	e := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: DocumentScope}
	cands := e.Extract(d)
	// 2 parts x 2 currents = 4 candidates.
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want 4", len(cands))
	}
	for i, c := range cands {
		if c.ID != i {
			t.Fatalf("dense ids: %d at %d", c.ID, i)
		}
		if len(c.Mentions) != 2 || c.Mentions[0].TypeName != "Part" {
			t.Fatalf("mentions = %+v", c.Mentions)
		}
	}
	if cands[0].Doc() != d {
		t.Fatal("Doc()")
	}
	if !strings.Contains(cands[0].String(), "SMBT3904") {
		t.Fatalf("String = %s", cands[0])
	}
	vals := cands[0].Values()
	if len(vals) != 2 || vals[0] != "SMBT3904" || vals[1] != "200" {
		t.Fatalf("Values = %v", vals)
	}
}

func TestScopeRestrictions(t *testing.T) {
	d := buildDoc(t)
	for _, tc := range []struct {
		scope Scope
		want  int
	}{
		{SentenceScope, 0}, // parts and currents never share a sentence
		{TableScope, 0},    // parts are outside the table
		{PageScope, 0},     // parts on page 0, currents on page 1
		{DocumentScope, 4},
	} {
		e := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: tc.scope}
		got := len(e.Extract(d))
		if got != tc.want {
			t.Errorf("scope %v: %d candidates, want %d", tc.scope, got, tc.want)
		}
	}
}

func TestScopeSameContext(t *testing.T) {
	// Both arguments inside the same table: TableScope keeps them.
	b := datamodel.NewBuilder("d", "html")
	tbl := b.AddTable()
	b.AddRow(tbl)
	c0 := b.AddCell(tbl, 0, 0, 0, 0)
	p0 := b.AddParagraph(c0)
	b.AddSentence(p0, []string{"SMBT3904"})
	c1 := b.AddCell(tbl, 0, 0, 1, 1)
	p1 := b.AddParagraph(c1)
	b.AddSentence(p1, []string{"200"})
	d := b.Finish()
	e := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: TableScope}
	if got := len(e.Extract(d)); got != 1 {
		t.Fatalf("table-scope candidates = %d, want 1", got)
	}
	// Sentence scope within one sentence.
	b2 := datamodel.NewBuilder("d2", "html")
	tx := b2.AddText()
	p := b2.AddParagraph(tx)
	b2.AddSentence(p, []string{"SMBT3904", "is", "rated", "200"})
	d2 := b2.Finish()
	e2 := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: SentenceScope}
	if got := len(e2.Extract(d2)); got != 1 {
		t.Fatalf("sentence-scope candidates = %d, want 1", got)
	}
}

func TestThrottler(t *testing.T) {
	d := buildDoc(t)
	// Keep only candidates whose Current has "Value" in its column header.
	headerThrottler := func(c *Candidate) bool {
		return datamodel.Contains(datamodel.ColHeaderNgrams(c.Mentions[1].Span), "value")
	}
	e := &Extractor{
		Args:       []ArgSpec{partArg(), currentArg()},
		Scope:      DocumentScope,
		Throttlers: []Throttler{headerThrottler},
	}
	cands := e.Extract(d)
	// Only "200" is under the Value header (column 0).
	if len(cands) != 2 {
		t.Fatalf("throttled candidates = %d, want 2", len(cands))
	}
	for _, c := range cands {
		if c.Mentions[1].Span.Text() != "200" {
			t.Fatalf("kept %v", c)
		}
	}
}

func TestMaxPerDoc(t *testing.T) {
	d := buildDoc(t)
	e := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: DocumentScope, MaxPerDoc: 3}
	if got := len(e.Extract(d)); got != 3 {
		t.Fatalf("capped candidates = %d, want 3", got)
	}
}

func TestExtractAllAndReset(t *testing.T) {
	d := buildDoc(t)
	e := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: DocumentScope}
	all := e.ExtractAll([]*datamodel.Document{d, d})
	if len(all) != 8 {
		t.Fatalf("two docs = %d candidates", len(all))
	}
	if all[7].ID != 7 {
		t.Fatalf("ids continue across docs: %d", all[7].ID)
	}
	e.Reset()
	again := e.Extract(d)
	if again[0].ID != 0 {
		t.Fatal("Reset must restart ids")
	}
}

func TestNoMentionsNoCartesianBlowup(t *testing.T) {
	d := buildDoc(t)
	never := ArgSpec{TypeName: "X", Matcher: matchers.NewDictionary("empty")}
	e := &Extractor{Args: []ArgSpec{partArg(), never}, Scope: DocumentScope}
	if got := e.Extract(d); got != nil {
		t.Fatalf("no-mention arg should yield nil, got %v", got)
	}
}

func TestSortByKeyDeterminism(t *testing.T) {
	d := buildDoc(t)
	e := &Extractor{Args: []ArgSpec{partArg(), currentArg()}, Scope: DocumentScope}
	a := e.Extract(d)
	b := make([]*Candidate, len(a))
	copy(b, a)
	// Reverse then sort; keys must restore a stable order.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	SortByKey(a)
	SortByKey(b)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("SortByKey not deterministic")
		}
	}
}

func TestScopeString(t *testing.T) {
	for s, want := range map[Scope]string{
		SentenceScope: "sentence", TableScope: "table",
		PageScope: "page", DocumentScope: "document", Scope(9): "scope(9)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}
