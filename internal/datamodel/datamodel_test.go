package datamodel

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Ancestors returns the chain of contexts from the sentence's parent up
// to and including the Document, in leaf-to-root order.
func Ancestors(n Node) []Node {
	var out []Node
	for p := n.Parent(); p != nil; p = p.Parent() {
		out = append(out, p)
	}
	return out
}

// buildFig1 constructs a small document mirroring the paper's Figure 1:
// a header Text containing the transistor part numbers, and a table of
// maximum ratings with Parameter/Symbol/Value/Unit columns.
func buildFig1(t *testing.T) *Document {
	t.Helper()
	b := NewBuilder("smbt3904", "pdf")

	header := b.AddText()
	hp := b.AddParagraph(header)
	hs := b.AddSentence(hp, []string{"SMBT3904", "...", "MMBT3904"})
	hs.HTMLTag = "h1"
	hs.AncestorTags = []string{"html", "body"}
	hs.Font = Font{Name: "Arial", Size: 12, Bold: true}
	hs.PageNums = []int{0, 0, 0}
	hs.Boxes = []Box{{10, 10, 40, 14}, {41, 10, 44, 14}, {45, 10, 80, 14}}

	tbl := b.AddTable()
	// Grid: row 0 header (Parameter Symbol Value Unit), row 1 data.
	r0 := b.AddRow(tbl)
	_ = r0
	r1 := b.AddRow(tbl)
	_ = r1
	heads := []string{"Parameter", "Symbol", "Value", "Unit"}
	for i, h := range heads {
		c := b.AddCell(tbl, 0, 0, i, i)
		c.IsHeader = true
		p := b.AddParagraph(c)
		s := b.AddSentence(p, []string{h})
		s.HTMLTag = "td"
		s.AncestorTags = []string{"html", "body", "table", "tr"}
		s.PageNums = []int{0}
		s.Boxes = []Box{{float64(10 + 30*i), 30, float64(35 + 30*i), 34}}
	}
	data := [][]string{{"Collector", "current"}, {"IC"}, {"200"}, {"mA"}}
	for i, words := range data {
		c := b.AddCell(tbl, 1, 1, i, i)
		p := b.AddParagraph(c)
		s := b.AddSentence(p, words)
		s.HTMLTag = "td"
		s.AncestorTags = []string{"html", "body", "table", "tr"}
		s.PageNums = make([]int, len(words))
		s.Boxes = make([]Box, len(words))
		for j := range words {
			s.Boxes[j] = Box{float64(10 + 30*i + 10*j), 40, float64(19 + 30*i + 10*j), 44}
		}
	}
	return b.Finish()
}

func spanOf(t *testing.T, d *Document, sentPos, start, end int) Span {
	t.Helper()
	if sentPos >= len(d.Sentences()) {
		t.Fatalf("no sentence %d (have %d)", sentPos, len(d.Sentences()))
	}
	return NewSpan(d.Sentences()[sentPos], start, end)
}

func TestDocumentStructure(t *testing.T) {
	d := buildFig1(t)
	if got := len(d.Sentences()); got != 9 {
		t.Fatalf("sentences = %d, want 9", got)
	}
	if got := len(d.Tables()); got != 1 {
		t.Fatalf("tables = %d, want 1", got)
	}
	tbl := d.Tables()[0]
	if tbl.NumRows != 2 || tbl.NumCols != 4 {
		t.Fatalf("grid = %dx%d, want 2x4", tbl.NumRows, tbl.NumCols)
	}
	if got := len(tbl.Columns); got != 4 {
		t.Fatalf("columns = %d, want 4", got)
	}
	for i, col := range tbl.Columns {
		if len(col.Cells) != 2 {
			t.Errorf("column %d has %d cells, want 2", i, len(col.Cells))
		}
	}
	if c := tbl.CellAt(1, 2); c == nil || c.Paragraphs[0].Sentences[0].Words[0] != "200" {
		t.Fatalf("CellAt(1,2) = %v, want the 200 cell", c)
	}
	if c := tbl.CellAt(5, 0); c != nil {
		t.Fatalf("CellAt(5,0) = %v, want nil", c)
	}
}

func TestNodeTypeString(t *testing.T) {
	types := []NodeType{DocumentType, SectionType, TextType, TableType,
		FigureType, CaptionType, RowType, ColumnType, CellType,
		ParagraphType, SentenceType}
	want := []string{"document", "section", "text", "table", "figure",
		"caption", "row", "column", "cell", "paragraph", "sentence"}
	for i, ty := range types {
		if ty.String() != want[i] {
			t.Errorf("NodeType(%d).String() = %q, want %q", int(ty), ty.String(), want[i])
		}
	}
	if got := NodeType(99).String(); got != "nodetype(99)" {
		t.Errorf("unknown type = %q", got)
	}
}

func TestSpanBasics(t *testing.T) {
	d := buildFig1(t)
	part := spanOf(t, d, 0, 0, 1) // "SMBT3904"
	if part.Text() != "SMBT3904" {
		t.Fatalf("Text = %q", part.Text())
	}
	if part.Len() != 1 {
		t.Fatalf("Len = %d", part.Len())
	}
	if part.InTable() {
		t.Fatal("header span should not be tabular")
	}
	if part.Page() != 0 {
		t.Fatalf("Page = %d", part.Page())
	}
	two := spanOf(t, d, 0, 0, 2)
	if two.Text() != "SMBT3904 ..." {
		t.Fatalf("Text = %q", two.Text())
	}
	if !two.BoundingBox().Union(part.BoundingBox()).Equal(two.BoundingBox()) {
		t.Fatal("span bbox should contain sub-span bbox")
	}
	if part.Key() == two.Key() {
		t.Fatal("distinct spans must have distinct keys")
	}
	if !part.Equal(spanOf(t, d, 0, 0, 1)) {
		t.Fatal("identical spans must be Equal")
	}
}

// Equal helper for Box in tests.
func (b Box) Equal(o Box) bool { return b == o }

func TestSpanPanicsOnInvalid(t *testing.T) {
	d := buildFig1(t)
	s := d.Sentences()[0]
	for _, bad := range [][2]int{{-1, 1}, {0, 0}, {2, 1}, {0, 99}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpan(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			NewSpan(s, bad[0], bad[1])
		}()
	}
}

func TestAllSpans(t *testing.T) {
	d := buildFig1(t)
	s := d.Sentences()[0] // 3 words
	got := AllSpans(s, 2)
	// lengths 1..2 over 3 words: 3 + 2 = 5 spans
	if len(got) != 5 {
		t.Fatalf("AllSpans = %d spans, want 5", len(got))
	}
	if got := AllSpans(s, 0); len(got) != 3 {
		t.Fatalf("maxLen 0 should clamp to 1, got %d spans", len(got))
	}
}

func TestTabularTraversal(t *testing.T) {
	d := buildFig1(t)
	// Sentence order: header, Parameter, Symbol, Value, Unit,
	// "Collector current", IC, 200, mA.
	val := spanOf(t, d, 7, 0, 1) // "200"
	if !val.InTable() {
		t.Fatal("200 should be tabular")
	}
	row := RowNgrams(val)
	if !Contains(row, "collector") || !Contains(row, "ma") {
		t.Fatalf("RowNgrams = %v", row)
	}
	if Contains(row, "200") {
		t.Fatal("RowNgrams must exclude own cell")
	}
	col := ColNgrams(val)
	if !Contains(col, "value") {
		t.Fatalf("ColNgrams = %v", col)
	}
	if h := ColHeaderNgrams(val); !Contains(h, "value") {
		t.Fatalf("ColHeaderNgrams = %v", h)
	}
	if h := RowHeaderNgrams(val); !Contains(h, "collector") {
		t.Fatalf("RowHeaderNgrams = %v", h)
	}
	if got := CellNgrams(val); !reflect.DeepEqual(got, []string{"200"}) {
		t.Fatalf("CellNgrams = %v", got)
	}

	ic := spanOf(t, d, 6, 0, 1)
	if !SameRow(val, ic) {
		t.Fatal("200 and IC share a row")
	}
	if SameCol(val, ic) {
		t.Fatal("200 and IC do not share a column")
	}
	hdr := spanOf(t, d, 3, 0, 1) // "Value"
	if !SameCol(val, hdr) {
		t.Fatal("200 and Value share a column")
	}
	if !SameTable(val, hdr) {
		t.Fatal("same table expected")
	}
	if SameCell(val, hdr) {
		t.Fatal("distinct cells")
	}
	if !SameCell(val, val) {
		t.Fatal("same cell with itself")
	}
	if md := ManhattanDist(val, hdr); md != 1 {
		t.Fatalf("ManhattanDist = %d, want 1", md)
	}
	part := spanOf(t, d, 0, 0, 1)
	if md := ManhattanDist(val, part); md != -1 {
		t.Fatalf("ManhattanDist with non-tabular = %d, want -1", md)
	}
	if RowNgrams(part) != nil || ColNgrams(part) != nil || CellNgrams(part) != nil {
		t.Fatal("non-tabular spans have no tabular ngrams")
	}
}

func TestVisualTraversal(t *testing.T) {
	d := buildFig1(t)
	val := spanOf(t, d, 7, 0, 1)  // "200", row y=40
	ic := spanOf(t, d, 6, 0, 1)   // "IC", same row
	hdr := spanOf(t, d, 3, 0, 1)  // "Value", same x band
	part := spanOf(t, d, 0, 0, 1) // header, y=10

	if !HorzAligned(val, ic) {
		t.Fatal("200 and IC are horizontally aligned")
	}
	if HorzAligned(val, hdr) {
		t.Fatal("200 and Value are not horizontally aligned")
	}
	if !VertAligned(val, hdr) {
		t.Fatal("200 and Value are vertically aligned")
	}
	if !VertAlignedLeft(val, hdr) {
		t.Fatal("left borders aligned by construction")
	}
	if VertAlignedLeft(val, part) && HorzAligned(val, part) {
		t.Fatal("header should not align with table value both ways")
	}
	if !SamePage(val, part) {
		t.Fatal("all on page 0")
	}
	al := AlignedNgrams(val)
	if !Contains(al, "value") {
		t.Fatalf("AlignedNgrams should include column header; got %v", al)
	}
	if !Contains(al, "ic") {
		t.Fatalf("AlignedNgrams should include row sibling; got %v", al)
	}
}

func TestStructuralTraversal(t *testing.T) {
	d := buildFig1(t)
	val := spanOf(t, d, 7, 0, 1)
	hdr := spanOf(t, d, 3, 0, 1)
	part := spanOf(t, d, 0, 0, 1)

	common := CommonAncestorTags(val, hdr)
	if !reflect.DeepEqual(common, []string{"html", "body", "table", "tr"}) {
		t.Fatalf("CommonAncestorTags = %v", common)
	}
	common = CommonAncestorTags(val, part)
	if !reflect.DeepEqual(common, []string{"html", "body"}) {
		t.Fatalf("CommonAncestorTags = %v", common)
	}

	// LCA of two cells in the same table is the Table (depth 2 from
	// the root); for a cell and the header text it is the Section
	// (depth 1). LCADepth is monotone in structural closeness.
	dSame := LCADepth(val, hdr)
	dDiff := LCADepth(val, part)
	if dSame != 2 || dDiff != 1 {
		t.Fatalf("LCADepth same=%d diff=%d, want 2 and 1", dSame, dDiff)
	}
	if MinDistToLCA(val, hdr) <= 0 || MinDistToLCA(val, part) <= 0 {
		t.Fatalf("MinDistToLCA must be positive: %d, %d",
			MinDistToLCA(val, hdr), MinDistToLCA(val, part))
	}
	lca, _, _ := LowestCommonAncestor(val.Sentence, hdr.Sentence)
	if lca.Type() != TableType {
		t.Fatalf("LCA type = %v, want table", lca.Type())
	}
}

func TestAncestorsAndDepth(t *testing.T) {
	d := buildFig1(t)
	s := d.Sentences()[7]
	anc := Ancestors(s)
	if anc[len(anc)-1].Type() != DocumentType {
		t.Fatal("ancestor chain must end at document")
	}
	if Depth(s) != len(anc) {
		t.Fatalf("Depth = %d, ancestors = %d", Depth(s), len(anc))
	}
	if Depth(d) != 0 {
		t.Fatal("document depth must be 0")
	}
}

func TestWalkOrderAndPrune(t *testing.T) {
	d := buildFig1(t)
	var visited []NodeType
	Walk(d, func(n Node) bool {
		visited = append(visited, n.Type())
		return n.Type() != TableType // prune below tables
	})
	for _, ty := range visited {
		if ty == RowType || ty == CellType {
			t.Fatal("walk must prune below table")
		}
	}
	if visited[0] != DocumentType || visited[1] != SectionType {
		t.Fatalf("walk order starts %v", visited[:2])
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	d := buildFig1(t)
	n := len(d.Sentences())
	d.Finalize()
	d.Finalize()
	if len(d.Sentences()) != n {
		t.Fatalf("finalize not idempotent: %d vs %d", len(d.Sentences()), n)
	}
	for i, s := range d.Sentences() {
		if s.Position != i {
			t.Fatalf("sentence %d has position %d", i, s.Position)
		}
	}
}

func TestBoxOps(t *testing.T) {
	a := Box{0, 0, 10, 4}
	b := Box{5, 2, 20, 8}
	u := a.Union(b)
	if u != (Box{0, 0, 20, 8}) {
		t.Fatalf("Union = %+v", u)
	}
	if a.Width() != 10 || a.Height() != 4 {
		t.Fatalf("W/H = %v/%v", a.Width(), a.Height())
	}
	if a.CenterX() != 5 || a.CenterY() != 2 {
		t.Fatalf("center = %v,%v", a.CenterX(), a.CenterY())
	}
}

// Property: Union is commutative, idempotent and monotone (contains
// both operands).
func TestBoxUnionProperties(t *testing.T) {
	norm := func(b Box) Box {
		if b.X0 > b.X1 {
			b.X0, b.X1 = b.X1, b.X0
		}
		if b.Y0 > b.Y1 {
			b.Y0, b.Y1 = b.Y1, b.Y0
		}
		return b
	}
	contains := func(outer, inner Box) bool {
		return outer.X0 <= inner.X0 && outer.Y0 <= inner.Y0 &&
			outer.X1 >= inner.X1 && outer.Y1 >= inner.Y1
	}
	f := func(a, b Box) bool {
		a, b = norm(a), norm(b)
		u := a.Union(b)
		return u == b.Union(a) && u == u.Union(a) && contains(u, a) && contains(u, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every span produced by AllSpans is valid and unique.
func TestAllSpansProperties(t *testing.T) {
	d := buildFig1(t)
	f := func(maxLen uint8) bool {
		m := int(maxLen%6) + 1
		for _, s := range d.Sentences() {
			spans := AllSpans(s, m)
			seen := map[string]bool{}
			for _, sp := range spans {
				if sp.Start < 0 || sp.End > len(s.Words) || sp.Start >= sp.End {
					return false
				}
				if sp.Len() > m {
					return false
				}
				k := sp.Key()
				if seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningCells(t *testing.T) {
	b := NewBuilder("span", "html")
	tbl := b.AddTable()
	b.AddRow(tbl)
	b.AddRow(tbl)
	b.AddRow(tbl)
	b.AddRow(tbl)
	// A cell spanning rows 0-2 in column 0, singles in column 1, and a
	// last row that is one cell spanning both columns.
	big := b.AddCell(tbl, 0, 2, 0, 0)
	p := b.AddParagraph(big)
	b.AddSentence(p, []string{"Ptot"})
	for r := 0; r < 3; r++ {
		c := b.AddCell(tbl, r, r, 1, 1)
		p := b.AddParagraph(c)
		b.AddSentence(p, []string{"v" + string(rune('0'+r))})
	}
	wide := b.AddCell(tbl, 3, 3, 0, 1)
	b.AddSentence(b.AddParagraph(wide), []string{"note"})
	d := b.Finish()
	tb := d.Tables()[0]
	if tb.NumRows != 4 || tb.NumCols != 2 {
		t.Fatalf("grid %dx%d", tb.NumRows, tb.NumCols)
	}
	if big.RowSpan() != 3 || big.ColSpan() != 1 || wide.RowSpan() != 1 || wide.ColSpan() != 2 {
		t.Fatalf("spans %d/%d and %d/%d", big.RowSpan(), big.ColSpan(), wide.RowSpan(), wide.ColSpan())
	}
	// A spanning cell is linked into every row it covers but is walked
	// once, under its first row: every node is visited exactly once and
	// sentence positions are dense.
	visits := map[Node]int{}
	Walk(d, func(n Node) bool {
		visits[n]++
		return true
	})
	for n, k := range visits {
		if k != 1 {
			t.Errorf("%v node visited %d times", n.Type(), k)
		}
	}
	if len(d.Sentences()) != 5 {
		t.Fatalf("%d sentences, want 5", len(d.Sentences()))
	}
	for i, s := range d.Sentences() {
		if s.Position != i {
			t.Errorf("sentence %d (%q) has position %d", i, s.Text(), s.Position)
		}
	}
	if len(tb.Rows[1].Cells) != 2 || big.Parent() != Node(tb.Rows[0]) {
		t.Errorf("spanning cell must stay linked into the rows it covers, with its first row as parent")
	}
	// The spanning cell shares a row with each single cell.
	ptot := NewSpan(d.Sentences()[0], 0, 1)
	for i := 1; i <= 3; i++ {
		v := NewSpan(d.Sentences()[i], 0, 1)
		if !SameRow(ptot, v) {
			t.Errorf("Ptot should share row with v%d", i-1)
		}
	}
	row := RowNgrams(ptot)
	sort.Strings(row)
	if !reflect.DeepEqual(row, []string{"v0", "v1", "v2"}) {
		t.Fatalf("RowNgrams of spanning cell = %v", row)
	}
	// CellAt must resolve every covered coordinate to the spanning cell.
	for r := 0; r < 3; r++ {
		if tb.CellAt(r, 0) != big {
			t.Errorf("CellAt(%d,0) != spanning cell", r)
		}
	}
}

func TestSentenceAccessors(t *testing.T) {
	d := buildFig1(t)
	s := d.Sentences()[5] // "Collector current"
	if s.Text() != "Collector current" {
		t.Fatalf("Text = %q", s.Text())
	}
	if !s.InTable() || s.Cell() == nil || s.Table() == nil {
		t.Fatal("tabular sentence accessors")
	}
	if s.Page() != 0 {
		t.Fatalf("Page = %d", s.Page())
	}
	bb := s.BoundingBox()
	if bb.Width() <= 0 {
		t.Fatalf("bbox = %+v", bb)
	}
	hs := d.Sentences()[0]
	if hs.InTable() {
		t.Fatal("header not tabular")
	}
	// Sentence with no visuals.
	b := NewBuilder("x", "xml")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	sent := b.AddSentence(p, []string{"hello"})
	b.Finish()
	if sent.Page() != -1 {
		t.Fatal("no-visual page must be -1")
	}
	if sent.HasVisual() {
		t.Fatal("no visuals expected")
	}
	if sent.BoundingBox() != (Box{}) {
		t.Fatal("zero bbox expected")
	}
}

func TestHorzAlignedNgrams(t *testing.T) {
	d := buildFig1(t)
	val := spanOf(t, d, 7, 0, 1) // "200", table row y=40
	ic := HorzAlignedNgrams(val)
	if !Contains(ic, "ic") {
		t.Fatalf("row sibling missing from horizontal alignment: %v", ic)
	}
	if Contains(ic, "value") {
		t.Fatalf("column header must not be horizontally aligned: %v", ic)
	}
	// Non-visual spans return nil.
	b := NewBuilder("x", "xml")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	s := b.AddSentence(p, []string{"plain"})
	b.Finish()
	if got := HorzAlignedNgrams(NewSpan(s, 0, 1)); got != nil {
		t.Fatalf("no-visual alignment = %v", got)
	}
}
