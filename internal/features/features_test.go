package features

import (
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/matchers"
)

// buildDoc mirrors Figure 1: part names in a bold header, a ratings
// table with Value/Unit columns, everything rendered on page 0.
func buildDoc(t *testing.T) *datamodel.Document {
	t.Helper()
	b := datamodel.NewBuilder("fig1", "pdf")
	hdr := b.AddText()
	p := b.AddParagraph(hdr)
	s := b.AddSentence(p, []string{"SMBT3904", "and", "MMBT3904"})
	s.HTMLTag = "h1"
	s.HTMLAttrs["class"] = "part-header"
	s.AncestorTags = []string{"html", "body"}
	s.Lemmas = []string{"smbt3904", "and", "mmbt3904"}
	s.POS = []string{"NNP", "CC", "NNP"}
	s.NER = []string{"CODE", "O", "CODE"}
	s.Font = datamodel.Font{Name: "Arial", Size: 12, Bold: true}
	s.PageNums = []int{0, 0, 0}
	s.Boxes = []datamodel.Box{{X0: 10, Y0: 10, X1: 40, Y1: 14}, {X0: 41, Y0: 10, X1: 45, Y1: 14}, {X0: 46, Y0: 10, X1: 76, Y1: 14}}

	tbl := b.AddTable()
	b.AddRow(tbl)
	b.AddRow(tbl)
	heads := []string{"Parameter", "Value", "Unit"}
	for i, h := range heads {
		c := b.AddCell(tbl, 0, 0, i, i)
		c.IsHeader = true
		cp := b.AddParagraph(c)
		cs := b.AddSentence(cp, []string{h})
		cs.HTMLTag = "th"
		cs.AncestorTags = []string{"html", "body", "table", "tr"}
		cs.PageNums = []int{0}
		cs.Boxes = []datamodel.Box{{X0: float64(10 + 30*i), Y0: 30, X1: float64(30 + 30*i), Y1: 34}}
	}
	vals := []string{"Collector current", "200", "mA"}
	for i, v := range vals {
		c := b.AddCell(tbl, 1, 1, i, i)
		cp := b.AddParagraph(c)
		words := strings.Fields(v)
		cs := b.AddSentence(cp, words)
		cs.HTMLTag = "td"
		cs.AncestorTags = []string{"html", "body", "table", "tr"}
		cs.PageNums = make([]int, len(words))
		cs.Boxes = make([]datamodel.Box, len(words))
		for j := range words {
			cs.Boxes[j] = datamodel.Box{X0: float64(10 + 30*i + 8*j), Y0: 40, X1: float64(17 + 30*i + 8*j), Y1: 44}
		}
	}
	return b.Finish()
}

func extractCands(t *testing.T, d *datamodel.Document) []*candidates.Candidate {
	t.Helper()
	e := &candidates.Extractor{
		Args: []candidates.ArgSpec{
			{TypeName: "Part", Matcher: matchers.MustRegex(`[SM]MBT[0-9]{4}`)},
			{TypeName: "Current", Matcher: matchers.NumberRange{Min: 100, Max: 995}},
		},
		Scope: candidates.DocumentScope,
	}
	cands := e.Extract(d)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	return cands
}

func names(fs []Feature) map[string]Modality {
	out := map[string]Modality{}
	for _, f := range fs {
		out[f.Name] = f.Modality
	}
	return out
}

func TestFeaturizeModalities(t *testing.T) {
	d := buildDoc(t)
	cands := extractCands(t, d)
	ex := NewExtractor()
	fs := names(ex.Featurize(cands[0]))

	expect := map[string]Modality{
		// Textual.
		"e0_WORD_smbt3904": Textual,
		"e0_POS_NNP":       Textual,
		"e1_WORD_200":      Textual,
		// Structural.
		"e0_TAG_h1":                      Structural,
		"e0_HTML_ATTR_class=part-header": Structural,
		"e0_ANCESTOR_TAG_html>body":      Structural,
		"e1_TAG_td":                      Structural,
		"COMMON_ANCESTOR_html>body":      Structural,
		// Tabular.
		"e0_NOT_IN_TABLE":   Tabular,
		"e1_ROW_NUM_1":      Tabular,
		"e1_COL_NUM_1":      Tabular,
		"e1_COL_HEAD_value": Tabular,
		"e1_ROW_collector":  Tabular,
		"e1_ROW_ma":         Tabular,
		"e1_CELL_200":       Tabular,
		// Visual.
		"e0_FONT_BOLD":     Visual,
		"e0_FONT_Arial":    Visual,
		"e0_PAGE_0":        Visual,
		"e1_ALIGNED_value": Visual,
		"SAME_PAGE":        Visual,
	}
	for name, mod := range expect {
		got, ok := fs[name]
		if !ok {
			t.Errorf("missing feature %s", name)
			continue
		}
		if got != mod {
			t.Errorf("%s modality = %v, want %v", name, got, mod)
		}
	}
}

func TestPairTabularFeatures(t *testing.T) {
	d := buildDoc(t)
	// Candidate of two tabular mentions: 200 and the Value header.
	val := datamodel.Span{Sentence: d.Sentences()[5], Start: 0, End: 1} // 200
	hdr := datamodel.Span{Sentence: d.Sentences()[2], Start: 0, End: 1} // Value
	c := &candidates.Candidate{Mentions: []candidates.Mention{
		{TypeName: "A", Span: val}, {TypeName: "B", Span: hdr},
	}}
	ex := NewExtractor()
	fs := names(ex.Featurize(c))
	for _, want := range []string{"SAME_TABLE", "SAME_COL", "SAME_TABLE_ROW_DIFF_1",
		"SAME_TABLE_COL_DIFF_0", "VERT_ALIGNED", "VERT_ALIGNED_LEFT"} {
		if _, ok := fs[want]; !ok {
			t.Errorf("missing pair feature %s", want)
		}
	}
	if _, ok := fs["SAME_CELL"]; ok {
		t.Error("SAME_CELL must not fire for distinct cells")
	}
}

func TestSameCellFeatures(t *testing.T) {
	d := buildDoc(t)
	s := d.Sentences()[4] // "Collector current"
	a := datamodel.Span{Sentence: s, Start: 0, End: 1}
	b := datamodel.Span{Sentence: s, Start: 1, End: 2}
	c := &candidates.Candidate{Mentions: []candidates.Mention{
		{TypeName: "A", Span: a}, {TypeName: "B", Span: b},
	}}
	fs := names(NewExtractor().Featurize(c))
	for _, want := range []string{"SAME_CELL", "SAME_PHRASE", "WORD_DIFF_1", "CHAR_DIFF_0"} {
		if _, ok := fs[want]; !ok {
			t.Errorf("missing same-cell feature %s", want)
		}
	}
}

func TestAblationDisablesModality(t *testing.T) {
	d := buildDoc(t)
	cands := extractCands(t, d)
	for _, mod := range []Modality{Textual, Structural, Tabular, Visual} {
		ex := NewExtractor()
		ex.Disabled[mod] = true
		for _, f := range ex.Featurize(cands[0]) {
			if f.Modality == mod {
				t.Errorf("modality %v not disabled: %s", mod, f.Name)
			}
		}
	}
	// All-disabled extractor yields nothing.
	ex := NewExtractor()
	for _, m := range []Modality{Textual, Structural, Tabular, Visual} {
		ex.Disabled[m] = true
	}
	if fs := ex.Featurize(cands[0]); len(fs) != 0 {
		t.Fatalf("all-disabled features = %v", fs)
	}
}

func TestCacheHitsAndEquivalence(t *testing.T) {
	d := buildDoc(t)
	cands := extractCands(t, d)

	cached := NewExtractor()
	uncached := NewExtractor()
	uncached.UseCache = false

	for i := range cands {
		a := names(cached.Featurize(cands[i]))
		b := names(uncached.Featurize(cands[i]))
		if len(a) != len(b) {
			t.Fatalf("cand %d: cached %d features, uncached %d", i, len(a), len(b))
		}
		for n := range a {
			if _, ok := b[n]; !ok {
				t.Fatalf("cand %d: cached-only feature %s", i, n)
			}
		}
	}
	// Both candidates share the Part mention "SMBT3904"? No — each
	// candidate pairs a distinct part with 200, but the Current
	// mention "200" is shared, so the second featurization hits.
	st := cached.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits, got %+v", st)
	}
	if uncached.Stats().Hits != 0 {
		t.Fatal("uncached extractor must not hit")
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("empty hit rate")
	}
}

func TestCacheFlushesPerDocument(t *testing.T) {
	d1 := buildDoc(t)
	d2 := buildDoc(t) // same content, distinct document object
	c1 := extractCands(t, d1)[0]
	c2 := extractCands(t, d2)[0]
	ex := NewExtractor()
	ex.Featurize(c1)
	before := ex.Stats().Misses
	ex.Featurize(c2) // new doc: cache flushed, all misses again
	if ex.Stats().Misses <= before {
		t.Fatal("cache must flush at document boundary")
	}
}

func TestIndex(t *testing.T) {
	ix := NewIndex()
	a := ix.ID("F_A")
	b := ix.ID("F_B")
	if a == b || ix.ID("F_A") != a {
		t.Fatal("index ids")
	}
	if ix.Name(a) != "F_A" || ix.Name(-1) != "" || ix.Name(99) != "" {
		t.Fatal("index names")
	}
	if ix.Len() != 2 {
		t.Fatalf("len = %d", ix.Len())
	}
	ix.Freeze()
	if ix.ID("F_NEW") != -1 {
		t.Fatal("frozen index must reject new names")
	}
	if ix.ID("F_B") != b {
		t.Fatal("frozen index must resolve known names")
	}
}

func TestModalityString(t *testing.T) {
	for m, want := range map[Modality]string{
		Textual: "textual", Structural: "structural",
		Tabular: "tabular", Visual: "visual", Modality(7): "modality(7)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}
