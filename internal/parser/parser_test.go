package parser

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datamodel"
)

const sampleHTML = `<!DOCTYPE html>
<html><body>
<h1 class="part-header" id="hdr">SMBT3904 ... MMBT3904</h1>
<p>NPN Silicon Switching Transistors.</p>
<table class="ratings">
<caption>Maximum Ratings</caption>
<tr><th>Parameter</th><th>Symbol</th><th>Value</th><th>Unit</th></tr>
<tr><td>Collector current</td><td>IC</td><td>200</td><td>mA</td></tr>
<tr><td rowspan="2">Total power dissipation</td><td>Ptot</td><td>330</td><td rowspan="2">mW</td></tr>
<tr><td>Ptot2</td><td>250</td></tr>
</table>
<img src="fig1.png" alt="Package outline drawing">
</body></html>`

func TestParseHTMLStructure(t *testing.T) {
	d := ParseHTML("smbt3904", sampleHTML)
	if len(d.Tables()) != 1 {
		t.Fatalf("tables = %d, want 1", len(d.Tables()))
	}
	tbl := d.Tables()[0]
	if tbl.NumRows != 4 || tbl.NumCols != 4 {
		t.Fatalf("grid = %dx%d, want 4x4", tbl.NumRows, tbl.NumCols)
	}
	if tbl.Caption == nil {
		t.Fatal("caption missing")
	}
	capText := tbl.Caption.Paragraphs[0].Sentences[0].Text()
	if capText != "Maximum Ratings" {
		t.Fatalf("caption = %q", capText)
	}
	// Rowspan: "Total power dissipation" covers rows 2-3 of column 0,
	// so the cell at (3,0) is the same spanning cell.
	c23 := tbl.CellAt(2, 0)
	c33 := tbl.CellAt(3, 0)
	if c23 == nil || c23 != c33 {
		t.Fatal("rowspan cell not shared across rows")
	}
	// The second spanned row's first explicit cell lands in column 1.
	c31 := tbl.CellAt(3, 1)
	if c31 == nil || c31.Paragraphs[0].Sentences[0].Words[0] != "Ptot2" {
		t.Fatalf("CellAt(3,1) = %v", c31)
	}
	// Header cells flagged.
	if h := tbl.CellAt(0, 2); h == nil || !h.IsHeader {
		t.Fatal("th cell must be IsHeader")
	}
	// Figure with alt caption.
	if len(d.Sections[0].Figures) != 1 {
		t.Fatalf("figures = %d", len(d.Sections[0].Figures))
	}
	fig := d.Sections[0].Figures[0]
	if fig.URL != "fig1.png" || fig.Caption == nil {
		t.Fatalf("figure = %+v", fig)
	}
}

// A row-spanning cell's sentence is listed once and positions stay
// dense — the store's snapshot and rehydration paths rely on it.
func TestParseHTMLRowspanSentencesOnce(t *testing.T) {
	d := ParseHTML("span", `<table><tr><td rowspan=2>A b c</td><td>1</td></tr><tr><td>2</td></tr></table>`)
	var got []string
	for i, s := range d.Sentences() {
		if s.Position != i {
			t.Errorf("sentence %d (%q) has position %d", i, s.Text(), s.Position)
		}
		got = append(got, s.Text())
	}
	if want := []string{"A b c", "1", "2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sentences = %q, want %q", got, want)
	}
	tbl := d.Tables()[0]
	if tbl.CellAt(1, 0) != tbl.CellAt(0, 0) || tbl.CellAt(1, 1).Paragraphs[0].Sentences[0].Text() != "2" {
		t.Fatal("rowspan cell must still cover (1,0) and push the next row's cell to column 1")
	}
}

// The grid is bounded by the source, not by its span attributes: a
// rowspan is clipped to the <tr> rows the table has, a colspan to
// HTML's limit of 1000 and a row's cells to maxTableCols columns.
func TestParseHTMLSpanBounds(t *testing.T) {
	for _, tc := range []struct {
		src        string
		rows, cols int
	}{
		{`<table><tr><td rowspan=3000000 colspan=3>a</td></tr></table>`, 1, 3},
		{`<table><tr><td rowspan=2000000000>a</td><td colspan=2000000000>b</td></tr><tbody><tr><td>c</td></tr></tbody></table>`, 2, 1 + maxColspan},
		{`<table><tr>` + strings.Repeat(`<td colspan=1000>w</td>`, 6) + `</tr></table>`, 1, maxTableCols},
	} {
		tbl := ParseHTML("bomb", tc.src).Tables()[0]
		if len(tbl.Rows) != tc.rows || tbl.NumRows != tc.rows || tbl.NumCols != tc.cols {
			t.Errorf("%s:\n%d rows (NumRows %d) x %d cols, want %d x %d", tc.src, len(tbl.Rows), tbl.NumRows, tbl.NumCols, tc.rows, tc.cols)
		}
		if c := tbl.CellAt(tc.rows-1, 0); c == nil || c.RowStart != 0 {
			t.Errorf("%s: the spanning cell must reach the last row", tc.src)
		}
	}
}

func TestParseHTMLAttributes(t *testing.T) {
	d := ParseHTML("smbt3904", sampleHTML)
	hdr := d.Sentences()[0]
	if hdr.HTMLTag != "h1" {
		t.Fatalf("tag = %q", hdr.HTMLTag)
	}
	if hdr.HTMLAttrs["class"] != "part-header" || hdr.HTMLAttrs["id"] != "hdr" {
		t.Fatalf("attrs = %v", hdr.HTMLAttrs)
	}
	var found *datamodel.Sentence
	for _, s := range d.Sentences() {
		if s.Text() == "200" {
			found = s
		}
	}
	if found == nil {
		t.Fatal("no 200 sentence")
	}
	if found.HTMLTag != "td" {
		t.Fatalf("value tag = %q", found.HTMLTag)
	}
	joined := strings.Join(found.AncestorTags, ">")
	if !strings.Contains(joined, "table") || !strings.Contains(joined, "tr") {
		t.Fatalf("ancestors = %v", found.AncestorTags)
	}
	if len(found.Lemmas) != len(found.Words) || len(found.POS) != len(found.Words) {
		t.Fatal("textual attributes missing")
	}
	if found.POS[0] != "CD" {
		t.Fatalf("POS of 200 = %s", found.POS[0])
	}
}

func TestParseHTMLSloppy(t *testing.T) {
	// Unclosed tags, unquoted attributes, entities, comments.
	src := `<p class=intro>a &amp; b<br>c</p><!-- note --><p>d`
	d := ParseHTML("sloppy", src)
	if len(d.Sentences()) == 0 {
		t.Fatal("no sentences parsed")
	}
	all := ""
	for _, s := range d.Sentences() {
		all += " " + s.Text()
	}
	for _, want := range []string{"a", "&", "b", "c", "d"} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in %q", want, all)
		}
	}
	first := d.Sentences()[0]
	if first.HTMLAttrs["class"] != "intro" {
		t.Fatalf("unquoted attr = %v", first.HTMLAttrs)
	}
}

func TestParseHTMLSections(t *testing.T) {
	src := `<p>one</p><hr><p>two</p><section><p>three</p></section>`
	d := ParseHTML("sections", src)
	if len(d.Sections) != 3 {
		t.Fatalf("sections = %d, want 3", len(d.Sections))
	}
}

func TestParseXML(t *testing.T) {
	src := `<?xml version="1.0"?>
<article id="gwas1">
  <sec><title>Results</title>
    <p>The variant rs7329174 was associated with asthma.</p>
  </sec>
  <sec>
    <table-wrap><table>
      <caption>Significant associations</caption>
      <tr><th>SNP</th><th>Phenotype</th><th>p-value</th></tr>
      <tr><td>rs7329174</td><td>asthma</td><td>3e-8</td></tr>
    </table></table-wrap>
  </sec>
</article>`
	d, err := ParseXML("gwas1", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tables()) != 1 {
		t.Fatalf("tables = %d", len(d.Tables()))
	}
	tbl := d.Tables()[0]
	if tbl.NumRows != 2 || tbl.NumCols != 3 {
		t.Fatalf("grid = %dx%d", tbl.NumRows, tbl.NumCols)
	}
	if tbl.Caption == nil {
		t.Fatal("xml caption missing")
	}
	// XML documents have no visual modality.
	for _, s := range d.Sentences() {
		if s.HasVisual() {
			t.Fatal("xml sentences must not have visuals")
		}
	}
	// Two <sec> elements -> at least two sections (initial may be empty).
	if len(d.Sections) < 2 {
		t.Fatalf("sections = %d", len(d.Sections))
	}
}

func TestParseXMLMalformed(t *testing.T) {
	if _, err := ParseXML("bad", `<a><b></a>`); err == nil {
		t.Fatal("malformed XML must error")
	}
}

func TestVDocRoundTrip(t *testing.T) {
	v := &VDoc{
		Name:  "doc1",
		Pages: 2,
		Words: []VWord{
			{Text: "SMBT3904", Page: 0, Box: datamodel.Box{X0: 10, Y0: 10, X1: 40, Y1: 14}, Font: datamodel.Font{Name: "Arial", Size: 12, Bold: true}},
			{Text: "200", Page: 0, Box: datamodel.Box{X0: 50, Y0: 40, X1: 59, Y1: 44}, Font: datamodel.Font{Name: "Arial", Size: 10}},
			{Text: "mA", Page: 1, Box: datamodel.Box{X0: 70, Y0: 40, X1: 76, Y1: 44}, Font: datamodel.Font{Name: "Arial", Size: 10}},
		},
	}
	got, err := ParseVDoc(FormatVDoc(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != v.Name || got.Pages != v.Pages || len(got.Words) != len(v.Words) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range v.Words {
		if got.Words[i] != v.Words[i] {
			t.Errorf("word %d: %+v != %+v", i, got.Words[i], v.Words[i])
		}
	}
}

func TestParseVDocErrors(t *testing.T) {
	bad := []string{
		"vdoc 2\n",
		"doc\n",
		"font Arial x 0 0\n",
		"w 0 1 2 3\n",
		"bogus line\n",
		"w a 1 2 3 4 word\n",
	}
	for _, src := range bad {
		if _, err := ParseVDoc(src); err == nil {
			t.Errorf("ParseVDoc(%q) should error", src)
		}
	}
}

// TestParseVDocLineLimit: the scanner's buffer starts small and grows,
// but the longest line it takes is what it always was — maxVDocLine bytes
// with the newline — and a longer one is bufio.ErrTooLong, not a
// truncated word.
func TestParseVDocLineLimit(t *testing.T) {
	const head = "vdoc 1\nw 1 0 0 1 1 "
	line := func(word int) string { return head + strings.Repeat("x", word) + "\nw 1 0 0 1 1 tail\n" }
	fits := maxVDocLine - len("w 1 0 0 1 1 ") - 1 // the word of a line that is exactly at the limit
	v, err := ParseVDoc(line(fits))
	if err != nil || len(v.Words) != 2 || len(v.Words[0].Text) != fits || v.Words[1].Text != "tail" {
		t.Fatalf("a %d-byte line: %v (%d words)", maxVDocLine, err, len(v.Words))
	}
	if _, err := ParseVDoc(line(fits + 1)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: err = %v, want bufio.ErrTooLong", maxVDocLine+1, err)
	}
}

func TestAlignVisual(t *testing.T) {
	d := ParseHTML("smbt3904", sampleHTML)
	// Build a vdoc whose word stream matches the parsed words, with a
	// couple of renderer errors: one word dropped, one mangled.
	var words []VWord
	y := 10.0
	for si, s := range d.Sentences() {
		x := 10.0
		for wi, w := range s.Words {
			text := w
			if si == 1 && wi == 1 {
				text = "Si1icon" // OCR-style mangling
			}
			if si == 2 && wi == 0 {
				continue // dropped word
			}
			words = append(words, VWord{
				Text: text, Page: 0,
				Box:  datamodel.Box{X0: x, Y0: y, X1: x + float64(3*len(w)), Y1: y + 4},
				Font: datamodel.Font{Name: "Arial", Size: 10},
			})
			x += float64(3*len(w)) + 2
		}
		y += 6
	}
	v := &VDoc{Name: "smbt3904", Pages: 1, Words: words}
	frac := AlignVisual(d, v)
	if frac < 0.9 {
		t.Fatalf("matched fraction = %v, want >= 0.9", frac)
	}
	if d.Pages != 1 {
		t.Fatalf("pages = %d", d.Pages)
	}
	// Every sentence must now carry visual info (recovery via
	// interpolation covers the mangled/dropped words).
	for _, s := range d.Sentences() {
		if !s.HasVisual() {
			t.Fatalf("sentence %q lost visuals", s.Text())
		}
		for wi := range s.Words {
			if s.Boxes[wi].Width() <= 0 {
				t.Fatalf("word %d of %q has empty box", wi, s.Text())
			}
		}
	}
	// Words in one sentence are horizontally aligned.
	s := d.Sentences()[3] // a table row sentence
	a := datamodel.NewSpan(s, 0, 1)
	if !a.HasVisual() {
		t.Fatal("span must have visuals")
	}
}

func TestAlignVisualEmpty(t *testing.T) {
	d := ParseHTML("empty", "")
	v := &VDoc{Name: "empty", Pages: 0}
	if frac := AlignVisual(d, v); frac != 0 {
		t.Fatalf("empty align = %v", frac)
	}
}

func TestLCSPairsProperties(t *testing.T) {
	f := func(a, b []byte) bool {
		as := make([]string, len(a))
		for i, c := range a {
			as[i] = string(rune('a' + c%4))
		}
		bs := make([]string, len(b))
		for i, c := range b {
			bs[i] = string(rune('a' + c%4))
		}
		pairs := lcsPairs(as, bs)
		// Pairs must be strictly increasing in both coordinates and
		// match equal words.
		for i, p := range pairs {
			if as[p[0]] != bs[p[1]] {
				return false
			}
			if i > 0 && (p[0] <= pairs[i-1][0] || p[1] <= pairs[i-1][1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPairs(t *testing.T) {
	a := []string{"x", "y", "z", "w"}
	b := []string{"y", "z", "q", "w"}
	pairs := greedyPairs(a, b)
	if len(pairs) != 3 {
		t.Fatalf("greedy pairs = %v", pairs)
	}
}

// nestingBomb is 900 KB of unclosed elements around one word; its XML
// twin closes them, as encoding/xml demands.
var (
	nestingBomb    = strings.Repeat("<b>", 300_000) + "x"
	nestingBombXML = "<r>" + strings.Repeat("<b>", 100_000) + "x" + strings.Repeat("</b>", 100_000) + "</r>"
)

// TestParseBoundsStack: element nesting costs heap, not stack. With the
// goroutine stack limited to 2 MB — a recursion per level took 134 MB
// for this input, and a deeper one the process — both bombs parse, the
// word survives, and no sentence sits below maxElementDepth elements.
func TestParseBoundsStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(2 << 20))
	for format, src := range map[string]string{"html": nestingBomb, "xml": nestingBombXML} {
		doc, err := Parse("bomb", format, src, "")
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		sents := doc.Sentences()
		if len(sents) != 1 || sents[0].Text() != "x" {
			t.Fatalf("%s: sentences = %v", format, sents)
		}
		if n := len(sents[0].AncestorTags); n > maxElementDepth {
			t.Fatalf("%s: sentence has %d ancestors, cap is %d", format, n, maxElementDepth)
		}
	}
}

// TestElementDepthCap: an element opened below the cap becomes a
// sibling, text keeps its order, and closing tags still find their
// element.
func TestElementDepthCap(t *testing.T) {
	src := strings.Repeat("<div>", maxElementDepth) + "<p>deep one.</p><p>deep two.</p>" +
		strings.Repeat("</div>", maxElementDepth) + "<p>after.</p>"
	var got []string
	for _, s := range ParseHTML("capped", src).Sentences() {
		got = append(got, s.Text())
		if len(s.AncestorTags) > maxElementDepth {
			t.Fatalf("%q has %d ancestors", s.Text(), len(s.AncestorTags))
		}
	}
	if want := []string{"deep one .", "deep two .", "after ."}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sentences = %q, want %q", got, want)
	}
	dom := tokenizeHTML(src)
	if last := dom.children[len(dom.children)-1]; last.tag != "p" || collectText(last) != "after." {
		t.Fatalf("closing tags lost their way: the source's last element is under %q", last.tag)
	}
}

// TestParseRejectsReservedBytes: the store's separator bytes are
// refused at the boundary, in the source and in the vdoc, naming the
// document; XML was already covered by encoding/xml.
func TestParseRejectsReservedBytes(t *testing.T) {
	for _, c := range []struct{ format, source, vdoc string }{
		{"html", "<p>a\x1fb</p>", ""},
		{"", "<p class=\"x\x1ey\">a</p>", ""},
		{"html", "<p>a</p>", "vdoc 1\ndoc d pages=1\nfont F\x1f 10 0 0\nw 1 0 0 1 1 a\n"},
		{"xml", "<p>a\x1fb</p>", ""},
		{"xml", "<p>a&#x1f;b</p>", ""},
	} {
		_, err := Parse("evil-doc", c.format, c.source, c.vdoc)
		if err == nil || !strings.Contains(err.Error(), `"evil-doc"`) {
			t.Errorf("Parse(%q, %q) = %v, want an error naming the document", c.format, c.source, err)
		}
	}
}

// TestTablePlacementMatchesReference pins emitTable's per-column grid
// state to the (row, column) occupancy map it replaced, kept here as
// the reference: over seeded random tables of spanning cells, every
// cell lands on the same rows and columns.
func TestTablePlacementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	type span struct{ rs, cs int }
	for trial := 0; trial < 2000; trial++ {
		rows := make([][]span, 1+rng.Intn(8))
		var src strings.Builder
		src.WriteString("<table>")
		for r := range rows {
			src.WriteString("<tr>")
			for range rng.Intn(5) {
				sp := span{1 + rng.Intn(4), 1 + rng.Intn(3)}
				rows[r] = append(rows[r], sp)
				fmt.Fprintf(&src, "<td rowspan=%d colspan=%d>x</td>", sp.rs, sp.cs)
			}
			src.WriteString("</tr>")
		}
		src.WriteString("</table>")

		var want [][4]int
		occupied := map[[2]int]bool{}
		for r, row := range rows {
			col := 0
			for _, sp := range row {
				for occupied[[2]int{r, col}] {
					col++
				}
				rs := min(sp.rs, len(rows)-r)
				want = append(want, [4]int{r, r + rs - 1, col, col + sp.cs - 1})
				for rr := r + 1; rr < r+rs; rr++ {
					for cc := col; cc < col+sp.cs; cc++ {
						occupied[[2]int{rr, cc}] = true
					}
				}
				col += sp.cs
			}
		}

		var got [][4]int
		if tables := ParseHTML("grid", src.String()).Tables(); len(tables) > 0 {
			for _, c := range tables[0].Cells {
				got = append(got, [4]int{c.RowStart, c.RowEnd, c.ColStart, c.ColEnd})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\ncells %v\nwant  %v", src.String(), got, want)
		}
	}
}
