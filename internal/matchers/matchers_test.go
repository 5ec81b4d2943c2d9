package matchers

import (
	"testing"

	"repro/internal/datamodel"
	"repro/internal/nlp"
)

func testDoc(t *testing.T, text string) *datamodel.Document {
	t.Helper()
	b := datamodel.NewBuilder("test", "html")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	for _, words := range nlp.SplitSentences(text) {
		b.AddSentence(p, words)
	}
	return b.Finish()
}

func span(t *testing.T, d *datamodel.Document, sent, start, end int) datamodel.Span {
	t.Helper()
	return datamodel.Span{Sentence: d.Sentences()[sent], Start: start, End: end}
}

func TestRegex(t *testing.T) {
	d := testDoc(t, "SMBT3904 rated 200 mA")
	m := MustRegex(`[1-9][0-9][0-5]`)
	if !m.Match(span(t, d, 0, 2, 3)) {
		t.Fatal("200 should match")
	}
	if m.Match(span(t, d, 0, 0, 1)) {
		t.Fatal("SMBT3904 should not match")
	}
	// Anchoring: pattern must cover whole text.
	if m.Match(span(t, d, 0, 2, 4)) {
		t.Fatal("multi-word span should not match")
	}
	if _, err := NewRegex("["); err == nil {
		t.Fatal("bad pattern must error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustRegex must panic on bad pattern")
			}
		}()
		MustRegex("[")
	}()
	if m.Name() == "" {
		t.Fatal("name")
	}
}

func TestDictionary(t *testing.T) {
	d := testDoc(t, "the SMBT3904 and collector current are here")
	m := NewDictionary("parts", "smbt3904", "Collector Current")
	if !m.Match(span(t, d, 0, 1, 2)) {
		t.Fatal("case-insensitive single word")
	}
	if !m.Match(span(t, d, 0, 3, 5)) {
		t.Fatal("multi-word entry")
	}
	if m.Match(span(t, d, 0, 0, 1)) {
		t.Fatal("'the' not in dictionary")
	}
	if m.Match(span(t, d, 0, 0, 3)) {
		t.Fatal("span longer than longest entry")
	}
}

func TestNumberRange(t *testing.T) {
	d := testDoc(t, "values 99 100 500 995 996 and 1,000 x")
	m := NumberRange{Min: 100, Max: 995}
	cases := map[int]bool{1: false, 2: true, 3: true, 4: true, 5: false, 8: false}
	for idx, want := range cases {
		got := m.Match(span(t, d, 0, idx, idx+1))
		if got != want {
			t.Errorf("NumberRange(%q) = %v, want %v", span(t, d, 0, idx, idx+1).Text(), got, want)
		}
	}
	// Comma-grouped numbers parse.
	if m.Match(span(t, d, 0, 7, 8)) {
		t.Error("1,000 outside range must not match")
	}
	if m.Match(span(t, d, 0, 1, 3)) {
		t.Error("multi-token span must not match")
	}
}

func TestCombinators(t *testing.T) {
	d := testDoc(t, "alpha 42 beta")
	num := NumberRange{Min: 0, Max: 100}
	dict := NewDictionary("greek", "alpha", "beta")
	u := Union{num, dict}
	if !u.Match(span(t, d, 0, 0, 1)) || !u.Match(span(t, d, 0, 1, 2)) {
		t.Fatal("union should match both")
	}
	x := Intersect{dict, Negate{NewDictionary("only-beta", "beta")}}
	if !x.Match(span(t, d, 0, 0, 1)) {
		t.Fatal("alpha passes intersect")
	}
	if x.Match(span(t, d, 0, 2, 3)) {
		t.Fatal("beta excluded by negation")
	}
	if u.Name() == "" || x.Name() == "" {
		t.Fatal("combinator names")
	}
}

func TestFunc(t *testing.T) {
	d := testDoc(t, "alpha beta")
	m := Func{MatcherName: "first", Fn: func(s datamodel.Span) bool { return s.Start == 0 }}
	if !m.Match(span(t, d, 0, 0, 1)) || m.Match(span(t, d, 0, 1, 2)) {
		t.Fatal("func matcher")
	}
	if m.Name() != "first" {
		t.Fatal("name")
	}
	if (Func{Fn: m.Fn}).Name() != "func" {
		t.Fatal("default name")
	}
}

func TestExtractLongestNonOverlapping(t *testing.T) {
	d := testDoc(t, "collector current and current gain")
	m := NewDictionary("terms", "collector current", "current", "current gain")
	got := Extract(d, m, 2)
	if len(got) != 2 {
		t.Fatalf("extract = %v", got)
	}
	if got[0].Text() != "collector current" {
		t.Fatalf("first = %q", got[0].Text())
	}
	if got[1].Text() != "current gain" {
		t.Fatalf("second = %q", got[1].Text())
	}
	// Results come back in document order.
	if got[0].Start > got[1].Start {
		t.Fatal("order")
	}
}

func TestExtractAcrossSentences(t *testing.T) {
	d := testDoc(t, "first has 200 here. second has 300 there.")
	got := Extract(d, NumberRange{Min: 0, Max: 999}, 1)
	if len(got) != 2 {
		t.Fatalf("extract = %v", got)
	}
	if got[0].Sentence == got[1].Sentence {
		t.Fatal("matches should come from distinct sentences")
	}
}

func TestExtractEmpty(t *testing.T) {
	d := testDoc(t, "nothing numeric here")
	if got := Extract(d, NumberRange{Min: 0, Max: 9}, 1); got != nil {
		t.Fatalf("extract = %v", got)
	}
}
