package datamodel

// Builder assembles a Document incrementally. Parsers and the synthetic
// corpus generators use it to construct the context DAG without having
// to wire parent pointers and positions by hand. Call Finish when the
// tree is complete; it returns the finalized Document.
type Builder struct {
	doc     *Document
	section *Section
}

// NewBuilder starts a document with a single initial Section (documents
// always have at least one).
func NewBuilder(name, format string) *Builder {
	b := &Builder{doc: &Document{Name: name, Format: format}}
	b.NewSection()
	return b
}

// NewSection appends a new Section and makes it current.
func (b *Builder) NewSection() *Section {
	s := &Section{Doc: b.doc, Position: len(b.doc.Sections)}
	b.doc.Sections = append(b.doc.Sections, s)
	b.section = s
	return s
}

// AddText appends a Text block to the current section.
func (b *Builder) AddText() *Text {
	t := &Text{Section: b.section, Position: len(b.section.Texts)}
	b.section.Texts = append(b.section.Texts, t)
	b.section.order = append(b.section.order, t)
	return t
}

// AddTable appends a Table to the current section.
func (b *Builder) AddTable() *Table {
	t := &Table{Section: b.section}
	b.section.Tables = append(b.section.Tables, t)
	b.section.order = append(b.section.order, t)
	return t
}

// AddFigure appends a Figure to the current section.
func (b *Builder) AddFigure(url string) *Figure {
	f := &Figure{Section: b.section, Position: len(b.section.Figures), URL: url}
	b.section.Figures = append(b.section.Figures, f)
	b.section.order = append(b.section.order, f)
	return f
}

// AddCaption attaches a Caption to a Table or Figure and returns it.
func (b *Builder) AddCaption(owner Node) *Caption {
	c := &Caption{Owner: owner}
	switch v := owner.(type) {
	case *Table:
		v.Caption = c
	case *Figure:
		v.Caption = c
	default:
		panic("datamodel: caption owner must be *Table or *Figure")
	}
	return c
}

// AddRow appends a Row to a table.
func (b *Builder) AddRow(t *Table) *Row {
	r := &Row{Table: t, Index: len(t.Rows)}
	t.Rows = append(t.Rows, r)
	return r
}

// AddCell appends a Cell covering the inclusive grid range
// [rowStart,rowEnd] x [colStart,colEnd] and links it into its rows.
func (b *Builder) AddCell(t *Table, rowStart, rowEnd, colStart, colEnd int) *Cell {
	c := &Cell{
		Table:    t,
		RowStart: rowStart, RowEnd: rowEnd,
		ColStart: colStart, ColEnd: colEnd,
		Position: len(t.Cells),
	}
	t.Cells = append(t.Cells, c)
	for r := rowStart; r <= rowEnd && r < len(t.Rows); r++ {
		t.Rows[r].Cells = append(t.Rows[r].Cells, c)
	}
	return c
}

// AddParagraph appends a Paragraph to a Text, Cell or Caption.
func (b *Builder) AddParagraph(owner Node) *Paragraph {
	p := &Paragraph{Owner: owner}
	switch v := owner.(type) {
	case *Text:
		p.Position = len(v.Paragraphs)
		v.Paragraphs = append(v.Paragraphs, p)
	case *Cell:
		p.Position = len(v.Paragraphs)
		v.Paragraphs = append(v.Paragraphs, p)
	case *Caption:
		p.Position = len(v.Paragraphs)
		v.Paragraphs = append(v.Paragraphs, p)
	default:
		panic("datamodel: paragraph owner must be *Text, *Cell or *Caption")
	}
	return p
}

// AddSentence appends a Sentence with the given words to a paragraph
// and wires its document/cell links. Other attributes (lemmas, tags,
// boxes) are set by the caller afterwards.
func (b *Builder) AddSentence(p *Paragraph, words []string) *Sentence {
	s := &Sentence{
		Doc:       b.doc,
		Paragraph: p,
		Words:     words,
		HTMLAttrs: map[string]string{},
	}
	if c, ok := p.Owner.(*Cell); ok {
		s.cell = c
	}
	p.Sentences = append(p.Sentences, s)
	return s
}

// Finish finalizes and returns the document.
func (b *Builder) Finish() *Document {
	b.doc.Finalize()
	return b.doc
}
