// Package datamodel implements Fonduer's unified multimodal data model:
// a directed acyclic graph of contexts whose structure mirrors the
// intuitive hierarchy of document components (Figure 3 of the paper).
//
// The root of the DAG is a Document, which contains Sections. Each
// Section divides into Texts, Tables and Figures. Tables contain Rows,
// Columns and Cells (a Cell is linked from both its Row and its Column);
// Tables and Figures may carry Captions. Every context ultimately breaks
// down into Paragraphs that are parsed into Sentences.
//
// Alongside the hierarchy, each Sentence records attributes from every
// modality found in the original document:
//
//   - textual: words, lemmas, part-of-speech tags, NER-lite tags;
//   - structural: the HTML/XML tag of the element the sentence came
//     from, its attributes, the tag path to the root, and its position
//     among its siblings;
//   - tabular: the Cell (and therefore Row/Column coordinates and
//     spans) that contains the sentence, when it lives inside a table;
//   - visual: per-word page numbers and bounding boxes plus font
//     information from a rendered view of the document.
//
// The data model is the formal representation used by every later stage
// of the pipeline: matchers and labeling functions traverse it to
// express multimodal patterns, and the feature library traverses it to
// generate structural, tabular and visual features automatically.
package datamodel

import (
	"fmt"
	"strings"
)

// NodeType enumerates the kinds of contexts in the data model DAG.
type NodeType int

// The context types, from the root of the DAG downward.
const (
	DocumentType NodeType = iota
	SectionType
	TextType
	TableType
	FigureType
	CaptionType
	RowType
	ColumnType
	CellType
	ParagraphType
	SentenceType
)

// String returns the lowercase name of the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentType:
		return "document"
	case SectionType:
		return "section"
	case TextType:
		return "text"
	case TableType:
		return "table"
	case FigureType:
		return "figure"
	case CaptionType:
		return "caption"
	case RowType:
		return "row"
	case ColumnType:
		return "column"
	case CellType:
		return "cell"
	case ParagraphType:
		return "paragraph"
	case SentenceType:
		return "sentence"
	default:
		return fmt.Sprintf("nodetype(%d)", int(t))
	}
}

// Node is implemented by every context in the data model. Traversal
// helpers and the feature library operate on this interface so that
// they are agnostic to the concrete context type.
type Node interface {
	// Type reports the kind of context.
	Type() NodeType
	// Parent returns the containing context, or nil for the Document.
	Parent() Node
	// ChildNodes returns the contained contexts in document order.
	ChildNodes() []Node
}

// Box is an axis-aligned bounding box on a rendered page, in abstract
// layout units with the origin at the top-left corner of the page.
type Box struct {
	X0, Y0, X1, Y1 float64
}

// Width returns the horizontal extent of the box.
func (b Box) Width() float64 { return b.X1 - b.X0 }

// Height returns the vertical extent of the box.
func (b Box) Height() float64 { return b.Y1 - b.Y0 }

// CenterX returns the horizontal center of the box.
func (b Box) CenterX() float64 { return (b.X0 + b.X1) / 2 }

// CenterY returns the vertical center of the box.
func (b Box) CenterY() float64 { return (b.Y0 + b.Y1) / 2 }

// Union returns the smallest box covering both b and o.
func (b Box) Union(o Box) Box {
	if o.X0 < b.X0 {
		b.X0 = o.X0
	}
	if o.Y0 < b.Y0 {
		b.Y0 = o.Y0
	}
	if o.X1 > b.X1 {
		b.X1 = o.X1
	}
	if o.Y1 > b.Y1 {
		b.Y1 = o.Y1
	}
	return b
}

// Font describes the typeface of a rendered sentence.
type Font struct {
	Name   string
	Size   float64
	Bold   bool
	Italic bool
}

// Document is the root of the data model DAG for one input document.
type Document struct {
	// Name identifies the document within its corpus.
	Name string
	// Format records the source format ("pdf", "html", "xml").
	Format string
	// Sections are the top-level children.
	Sections []*Section
	// Pages is the number of rendered pages (0 when there is no
	// visual modality, e.g. native XML input).
	Pages int

	sentences []*Sentence // in document order, filled by Finalize
	tables    []*Table    // in document order, filled by Finalize
}

// Type implements Node.
func (d *Document) Type() NodeType { return DocumentType }

// Parent implements Node; a Document has no parent.
func (d *Document) Parent() Node { return nil }

// ChildNodes implements Node.
func (d *Document) ChildNodes() []Node {
	out := make([]Node, len(d.Sections))
	for i, s := range d.Sections {
		out[i] = s
	}
	return out
}

// Sentences returns every sentence in the document in document order.
// Finalize must have been called (builders and parsers do this).
func (d *Document) Sentences() []*Sentence { return d.sentences }

// Tables returns every table in the document in document order.
func (d *Document) Tables() []*Table { return d.tables }

// Section is a top-level division of a Document.
type Section struct {
	Doc      *Document
	Position int
	Texts    []*Text
	Tables   []*Table
	Figures  []*Figure

	// order preserves the interleaving of texts, tables and figures
	// as they appeared in the source document.
	order []Node
}

// Type implements Node.
func (s *Section) Type() NodeType { return SectionType }

// Parent implements Node.
func (s *Section) Parent() Node { return s.Doc }

// ChildNodes implements Node, preserving source interleaving.
func (s *Section) ChildNodes() []Node { return s.order }

// Text is a block of prose (e.g. a header, a description paragraph).
type Text struct {
	Section    *Section
	Position   int
	Paragraphs []*Paragraph
}

// Type implements Node.
func (t *Text) Type() NodeType { return TextType }

// Parent implements Node.
func (t *Text) Parent() Node { return t.Section }

// ChildNodes implements Node.
func (t *Text) ChildNodes() []Node {
	out := make([]Node, len(t.Paragraphs))
	for i, p := range t.Paragraphs {
		out[i] = p
	}
	return out
}

// Table is a grid of Cells organized into Rows and Columns.
type Table struct {
	Section  *Section
	Position int // index among the document's tables
	Caption  *Caption
	Rows     []*Row
	Columns  []*Column
	Cells    []*Cell
	// NumRows and NumCols give the logical grid dimensions.
	NumRows, NumCols int
}

// Type implements Node.
func (t *Table) Type() NodeType { return TableType }

// Parent implements Node.
func (t *Table) Parent() Node { return t.Section }

// ChildNodes implements Node. Rows are the canonical children; the
// Caption, when present, comes first.
func (t *Table) ChildNodes() []Node {
	out := make([]Node, 0, len(t.Rows)+1)
	if t.Caption != nil {
		out = append(out, t.Caption)
	}
	for _, r := range t.Rows {
		out = append(out, r)
	}
	return out
}

// CellAt returns the cell covering grid position (row, col), or nil.
func (t *Table) CellAt(row, col int) *Cell {
	for _, c := range t.Cells {
		if row >= c.RowStart && row <= c.RowEnd && col >= c.ColStart && col <= c.ColEnd {
			return c
		}
	}
	return nil
}

// Figure is a non-textual object (image, chart) with optional caption.
type Figure struct {
	Section  *Section
	Position int
	Caption  *Caption
	URL      string
}

// Type implements Node.
func (f *Figure) Type() NodeType { return FigureType }

// Parent implements Node.
func (f *Figure) Parent() Node { return f.Section }

// ChildNodes implements Node.
func (f *Figure) ChildNodes() []Node {
	if f.Caption == nil {
		return nil
	}
	return []Node{f.Caption}
}

// Caption annotates a Table or a Figure.
type Caption struct {
	// Owner is the Table or Figure the caption belongs to.
	Owner      Node
	Paragraphs []*Paragraph
}

// Type implements Node.
func (c *Caption) Type() NodeType { return CaptionType }

// Parent implements Node.
func (c *Caption) Parent() Node { return c.Owner }

// ChildNodes implements Node.
func (c *Caption) ChildNodes() []Node {
	out := make([]Node, len(c.Paragraphs))
	for i, p := range c.Paragraphs {
		out[i] = p
	}
	return out
}

// Row is a horizontal slice of a Table.
type Row struct {
	Table *Table
	Index int
	Cells []*Cell
}

// Type implements Node.
func (r *Row) Type() NodeType { return RowType }

// Parent implements Node.
func (r *Row) Parent() Node { return r.Table }

// ChildNodes implements Node. A row-spanning cell is listed in the
// Cells of every row it covers but is the child of its first row only
// (Cell.Parent), so a walk visits each cell once.
func (r *Row) ChildNodes() []Node {
	var out []Node
	for _, c := range r.Cells {
		if c.RowStart == r.Index {
			if out == nil {
				out = make([]Node, 0, len(r.Cells))
			}
			out = append(out, c)
		}
	}
	return out
}

// Column is a vertical slice of a Table.
type Column struct {
	Table *Table
	Index int
	Cells []*Cell
}

// Type implements Node.
func (c *Column) Type() NodeType { return ColumnType }

// Parent implements Node.
func (c *Column) Parent() Node { return c.Table }

// ChildNodes implements Node.
func (c *Column) ChildNodes() []Node {
	out := make([]Node, len(c.Cells))
	for i, cl := range c.Cells {
		out[i] = cl
	}
	return out
}

// Cell is one grid entry of a Table. Spanning cells cover the inclusive
// grid ranges [RowStart,RowEnd] x [ColStart,ColEnd].
type Cell struct {
	Table            *Table
	RowStart, RowEnd int
	ColStart, ColEnd int
	Paragraphs       []*Paragraph
	Position         int // index among the table's cells
	IsHeader         bool
}

// Type implements Node.
func (c *Cell) Type() NodeType { return CellType }

// Parent implements Node. The canonical parent of a Cell is its Row
// (the Column link is available through Table.Columns).
func (c *Cell) Parent() Node {
	if c.Table != nil && c.RowStart < len(c.Table.Rows) {
		return c.Table.Rows[c.RowStart]
	}
	return c.Table
}

// ChildNodes implements Node.
func (c *Cell) ChildNodes() []Node {
	out := make([]Node, len(c.Paragraphs))
	for i, p := range c.Paragraphs {
		out[i] = p
	}
	return out
}

// RowSpan reports how many grid rows the cell covers.
func (c *Cell) RowSpan() int { return c.RowEnd - c.RowStart + 1 }

// ColSpan reports how many grid columns the cell covers.
func (c *Cell) ColSpan() int { return c.ColEnd - c.ColStart + 1 }

// Paragraph groups consecutive Sentences under a Text, Cell or Caption.
type Paragraph struct {
	// Owner is the Text, Cell or Caption containing the paragraph.
	Owner     Node
	Position  int
	Sentences []*Sentence
}

// Type implements Node.
func (p *Paragraph) Type() NodeType { return ParagraphType }

// Parent implements Node.
func (p *Paragraph) Parent() Node { return p.Owner }

// ChildNodes implements Node.
func (p *Paragraph) ChildNodes() []Node {
	out := make([]Node, len(p.Sentences))
	for i, s := range p.Sentences {
		out[i] = s
	}
	return out
}

// Sentence is the leaf context of the data model. All multimodal
// attributes are recorded at (or below) sentence granularity.
type Sentence struct {
	Doc       *Document
	Paragraph *Paragraph
	// Position is the sentence index in document order.
	Position int

	// Textual attributes (one entry per word).
	Words  []string
	Lemmas []string
	POS    []string
	NER    []string

	// Structural attributes.
	HTMLTag         string            // tag of the innermost element
	HTMLAttrs       map[string]string // attributes of that element
	AncestorTags    []string          // tag path root..parent
	AncestorClasses []string          // class attributes along the path
	AncestorIDs     []string          // id attributes along the path
	NodePos         int               // position among siblings
	PrevSibTag      string
	NextSibTag      string

	// Visual attributes (empty when the document has no rendering).
	PageNums []int // per word
	Boxes    []Box // per word
	Font     Font

	cell *Cell // non-nil when the sentence lives inside a table cell
}

// Type implements Node.
func (s *Sentence) Type() NodeType { return SentenceType }

// Parent implements Node.
func (s *Sentence) Parent() Node { return s.Paragraph }

// ChildNodes implements Node; sentences are leaves.
func (s *Sentence) ChildNodes() []Node { return nil }

// Cell returns the table cell containing the sentence, or nil when the
// sentence is not tabular.
func (s *Sentence) Cell() *Cell { return s.cell }

// Table returns the table containing the sentence, or nil.
func (s *Sentence) Table() *Table {
	if s.cell == nil {
		return nil
	}
	return s.cell.Table
}

// InTable reports whether the sentence lives inside a table cell.
func (s *Sentence) InTable() bool { return s.cell != nil }

// HasVisual reports whether per-word visual attributes are available.
func (s *Sentence) HasVisual() bool { return len(s.Boxes) == len(s.Words) && len(s.Words) > 0 }

// Text reconstructs the sentence text with single spaces.
func (s *Sentence) Text() string { return strings.Join(s.Words, " ") }

// Page returns the page of the sentence's first word, or -1 when the
// document has no visual rendering.
func (s *Sentence) Page() int {
	if len(s.PageNums) == 0 {
		return -1
	}
	return s.PageNums[0]
}

// BoundingBox returns the union of the word boxes, or the zero Box when
// no visual information is present.
func (s *Sentence) BoundingBox() Box {
	if !s.HasVisual() {
		return Box{}
	}
	b := s.Boxes[0]
	for _, o := range s.Boxes[1:] {
		b = b.Union(o)
	}
	return b
}

// Ancestors returns the chain of contexts from the sentence's parent up
// to and including the Document, in leaf-to-root order.
func Ancestors(n Node) []Node {
	var out []Node
	for p := n.Parent(); p != nil; p = p.Parent() {
		out = append(out, p)
	}
	return out
}

// Depth returns the number of edges from n to the Document root.
func Depth(n Node) int {
	d := 0
	for p := n.Parent(); p != nil; p = p.Parent() {
		d++
	}
	return d
}

// LowestCommonAncestor returns the deepest context that contains both a
// and b, along with the distance (in edges) from each argument to it.
// It returns nil if the nodes belong to different documents.
func LowestCommonAncestor(a, b Node) (lca Node, distA, distB int) {
	seen := map[Node]int{}
	d := 0
	for n := a; n != nil; n = n.Parent() {
		seen[n] = d
		d++
	}
	d = 0
	for n := b; n != nil; n = n.Parent() {
		if da, ok := seen[n]; ok {
			return n, da, d
		}
		d++
	}
	return nil, 0, 0
}

// Walk visits n and all its descendants in depth-first document order,
// calling fn for each node. If fn returns false the subtree below the
// node is skipped.
func Walk(n Node, fn func(Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.ChildNodes() {
		Walk(c, fn)
	}
}

// Finalize wires derived state after a document's tree is fully built:
// sentence document-order positions, the flattened sentence and table
// lists, column links, and table grid dimensions. Builders and parsers
// call this; it is idempotent.
func (d *Document) Finalize() {
	d.sentences = d.sentences[:0]
	d.tables = d.tables[:0]
	pos := 0
	Walk(d, func(n Node) bool {
		switch v := n.(type) {
		case *Sentence:
			v.Position = pos
			pos++
			d.sentences = append(d.sentences, v)
		case *Table:
			v.Position = len(d.tables)
			d.tables = append(d.tables, v)
			v.finalizeGrid()
		}
		return true
	})
}

// finalizeGrid computes NumRows/NumCols and rebuilds Column structures
// from the cells' grid coordinates.
func (t *Table) finalizeGrid() {
	maxR, maxC := -1, -1
	for _, c := range t.Cells {
		if c.RowEnd > maxR {
			maxR = c.RowEnd
		}
		if c.ColEnd > maxC {
			maxC = c.ColEnd
		}
	}
	t.NumRows, t.NumCols = maxR+1, maxC+1
	t.Columns = make([]*Column, t.NumCols)
	for i := range t.Columns {
		t.Columns[i] = &Column{Table: t, Index: i}
	}
	for _, c := range t.Cells {
		for col := c.ColStart; col <= c.ColEnd && col < t.NumCols; col++ {
			t.Columns[col].Cells = append(t.Columns[col].Cells, c)
		}
	}
}
