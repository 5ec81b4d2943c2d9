// Package parser converts input documents — HTML, XML, and rendered
// visual layouts — into instances of Fonduer's multimodal data model.
//
// The paper's pipeline uses Poppler to obtain HTML structure from PDFs
// and a PDF printer to obtain visual coordinates, then aligns the two
// word sequences. This package plays the same role: ParseHTML builds
// the structural/tabular view, ParseVDoc reads a rendered visual layout
// (the "vdoc" format emitted by the synthetic corpus generators in
// place of a PDF renderer), and AlignVisual merges the two views by
// word-sequence alignment, recovering from conversion errors the same
// way the paper describes (matching characters and repeat counts, with
// interpolation for unmatched words).
package parser

import (
	"slices"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/datamodel"
	"repro/internal/nlp"
)

// htmlNode is a minimal DOM node: either an element with children or a
// text node.
type htmlNode struct {
	tag      string // "" for text nodes
	attrs    map[string]string
	text     string // text nodes only
	children []*htmlNode
	parent   *htmlNode
}

// voidTags never have closing tags or children.
var voidTags = map[string]bool{
	"br": true, "hr": true, "img": true, "meta": true, "link": true,
	"input": true, "area": true, "base": true, "col": true,
}

// maxElementDepth caps how deep elements nest in the DOM that
// tokenizeHTML and xmlToDOM build: an element opened below an element at
// the cap is attached as that element's sibling, as browsers do. It is a
// bound on resources, not on shape: the walkers recurse once per level,
// so a megabyte of unclosed <b> would otherwise cost a hundred megabytes
// of stack (and six megabytes the process).
const maxElementDepth = 512

// tokenizeHTML performs a forgiving scan of HTML source into a DOM
// tree. It tolerates unquoted attributes, unclosed void tags, and
// mismatched closing tags (closing tags pop to the nearest matching
// open element).
func tokenizeHTML(src string) *htmlNode {
	root := &htmlNode{tag: "#root", attrs: map[string]string{}}
	cur, depth := root, 0 // depth is cur's distance from root
	i := 0
	for i < len(src) {
		if src[i] == '<' {
			j := strings.IndexByte(src[i:], '>')
			if j < 0 {
				// Trailing junk; treat as text.
				appendText(cur, src[i:])
				break
			}
			tagSrc := src[i+1 : i+j]
			i += j + 1
			switch {
			case strings.HasPrefix(tagSrc, "!--"):
				// Comment: skip to -->
				if end := strings.Index(tagSrc, "--"); end >= 0 && strings.HasSuffix(tagSrc, "--") {
					continue
				}
				if end := strings.Index(src[i:], "-->"); end >= 0 {
					i += end + 3
				}
			case strings.HasPrefix(tagSrc, "!"), strings.HasPrefix(tagSrc, "?"):
				// DOCTYPE or processing instruction: ignore.
			case strings.HasPrefix(tagSrc, "/"):
				name := strings.ToLower(strings.TrimSpace(tagSrc[1:]))
				for n, d := cur, depth; n != root; n, d = n.parent, d-1 {
					if n.tag == name {
						cur, depth = n.parent, d-1
						break
					}
				}
			default:
				selfClose := strings.HasSuffix(tagSrc, "/")
				if selfClose {
					tagSrc = tagSrc[:len(tagSrc)-1]
				}
				name, attrs := parseTag(tagSrc)
				if depth == maxElementDepth {
					cur, depth = cur.parent, depth-1 // el becomes cur's sibling
				}
				el := &htmlNode{tag: name, attrs: attrs, parent: cur}
				cur.children = append(cur.children, el)
				if !selfClose && !voidTags[name] {
					cur, depth = el, depth+1
				}
			}
		} else {
			j := strings.IndexByte(src[i:], '<')
			if j < 0 {
				j = len(src) - i
			}
			appendText(cur, src[i:i+j])
			i += j
		}
	}
	return root
}

func appendText(parent *htmlNode, text string) {
	t := strings.TrimFunc(text, unicode.IsSpace)
	if t == "" {
		return
	}
	parent.children = append(parent.children, &htmlNode{text: decodeEntities(t), parent: parent})
}

// entities maps the handful of entities the corpora use (a Replacer is
// safe for concurrent use).
var entities = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">",
	"&quot;", `"`, "&apos;", "'", "&nbsp;", " ",
	"&deg;", "°", "&le;", "≤", "&ge;", "≥",
)

// decodeEntities replaces the entities in a text node.
func decodeEntities(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	return entities.Replace(s)
}

// parseTag splits `name attr="v" flag` into the tag name and attributes.
// A tag without attributes gets a nil map.
func parseTag(src string) (string, map[string]string) {
	fields := splitTagFields(src)
	if len(fields) == 0 {
		return "", nil
	}
	name := strings.ToLower(fields[0])
	var attrs map[string]string
	if len(fields) > 1 {
		attrs = make(map[string]string, len(fields)-1)
	}
	for _, f := range fields[1:] {
		if eq := strings.IndexByte(f, '='); eq >= 0 {
			k := strings.ToLower(f[:eq])
			v := strings.Trim(f[eq+1:], `"'`)
			attrs[k] = v
		} else if f != "" {
			attrs[strings.ToLower(f)] = ""
		}
	}
	return name, attrs
}

// splitTagFields splits on spaces but keeps quoted attribute values
// intact.
func splitTagFields(src string) []string {
	var fields []string
	var cur strings.Builder
	inQuote := byte(0)
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inQuote != 0:
			cur.WriteByte(c)
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
			cur.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if cur.Len() > 0 {
				fields = append(fields, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		fields = append(fields, cur.String())
	}
	return fields
}

// textBlockTags start a Text context in the data model.
var textBlockTags = map[string]bool{
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"p": true, "li": true, "title": true, "blockquote": true, "pre": true,
	"dd": true, "dt": true,
}

// ParseHTML parses HTML source into a data model Document. The mapping
// follows Figure 3 of the paper: headline/paragraph elements become
// Texts, <table> elements become Tables with Rows/Columns/Cells (with
// rowspan/colspan honored), <img> becomes a Figure, and <section>/<hr>
// start new Sections. Sentences carry structural attributes (tag,
// attributes, ancestor tag path, sibling tags) and textual attributes
// (lemmas, POS, NER) computed with package nlp.
func ParseHTML(name, src string) *datamodel.Document {
	dom := tokenizeHTML(src)
	b := datamodel.NewBuilder(name, "html")
	w := &htmlWalker{b: b}
	w.walk(dom, nil)
	return b.Finish()
}

type htmlWalker struct {
	b *datamodel.Builder
	// heldTo is emitTable's grid state, reused from table to table (a
	// cell's text is collected, not walked, so tables never nest here):
	// heldTo[c] is the last row a cell spanning down from an earlier row
	// holds column c to. At row r, column c is taken exactly when
	// heldTo[c] >= r; columns past its end are free.
	heldTo []int
}

func (w *htmlWalker) walk(n *htmlNode, path []*htmlNode) {
	for _, c := range n.children {
		switch {
		case c.tag == "section" || c.tag == "hr":
			w.b.NewSection()
			w.walk(c, append(path, c))
		case c.tag == "table":
			w.emitTable(c, append(path, c))
		case c.tag == "img":
			fig := w.b.AddFigure(c.attrs["src"])
			if alt := c.attrs["alt"]; alt != "" {
				cap := w.b.AddCaption(fig)
				p := w.b.AddParagraph(cap)
				w.emitSentences(p, alt, c, append(path, c))
			}
		case textBlockTags[c.tag]:
			text := w.b.AddText()
			p := w.b.AddParagraph(text)
			w.emitSentences(p, collectText(c), c, append(path, c))
		case c.tag == "" && strings.TrimSpace(c.text) != "":
			// Bare text outside any block: its own Text context.
			text := w.b.AddText()
			p := w.b.AddParagraph(text)
			w.emitSentences(p, c.text, n, path)
		default:
			w.walk(c, append(path, c))
		}
	}
}

const (
	// maxColspan is HTML's own limit on a colspan attribute.
	maxColspan = 1000
	// maxTableCols caps a table's width: far past any real table, and it
	// bounds the per-column vector emitTable keeps at 32 KB.
	maxTableCols = 4096
)

// countRows counts a table's <tr> elements, directly under it or inside
// its row groups — the elements emitTable turns into rows.
func countRows(n *htmlNode) int {
	rows := 0
	for _, c := range n.children {
		switch c.tag {
		case "thead", "tbody", "tfoot":
			rows += countRows(c)
		case "tr":
			rows++
		}
	}
	return rows
}

// emitTable converts a <table> element, honoring rowspan/colspan, and
// attaching <caption> when present. The grid is bounded by the source,
// not by its span attributes: the table has one row per <tr>, a rowspan
// is clipped to the rows that remain (as the HTML table model clips a
// cell to its row group), a colspan to maxColspan and a cell's columns
// to maxTableCols. Its memory is bounded by the width, not the area: a
// spanning cell records, per column it covers, the last row it holds.
func (w *htmlWalker) emitTable(tn *htmlNode, path []*htmlNode) {
	tbl := w.b.AddTable()
	n := countRows(tn)
	tbl.Rows = slices.Grow(tbl.Rows, n)
	for ; n > 0; n-- {
		w.b.AddRow(tbl)
	}
	w.heldTo = w.heldTo[:0]
	rowIdx := 0
	var handleRows func(n *htmlNode)
	handleRows = func(n *htmlNode) {
		for _, c := range n.children {
			switch c.tag {
			case "caption":
				cap := w.b.AddCaption(tbl)
				p := w.b.AddParagraph(cap)
				w.emitSentences(p, collectText(c), c, append(path, c))
			case "thead", "tbody", "tfoot":
				handleRows(c)
			case "tr":
				col := 0
				for _, cell := range c.children {
					if cell.tag != "td" && cell.tag != "th" {
						continue
					}
					for col < len(w.heldTo) && w.heldTo[col] >= rowIdx {
						col++
					}
					col = min(col, maxTableCols-1)
					rs := min(atoiDefault(cell.attrs["rowspan"], 1), len(tbl.Rows)-rowIdx)
					cs := min(atoiDefault(cell.attrs["colspan"], 1), maxColspan, maxTableCols-col)
					cc := w.b.AddCell(tbl, rowIdx, rowIdx+rs-1, col, col+cs-1)
					cc.IsHeader = cell.tag == "th"
					if last := rowIdx + rs - 1; last > rowIdx {
						for len(w.heldTo) < col+cs {
							w.heldTo = append(w.heldTo, -1)
						}
						for k := col; k < col+cs; k++ {
							w.heldTo[k] = max(w.heldTo[k], last)
						}
					}
					p := w.b.AddParagraph(cc)
					w.emitSentences(p, collectText(cell), cell, append(path, c, cell))
					col += cs
				}
				rowIdx++
			}
		}
	}
	handleRows(tn)
}

// emitSentences splits text into sentences and attaches structural and
// textual attributes derived from the element and its DOM path.
func (w *htmlWalker) emitSentences(p *datamodel.Paragraph, text string, el *htmlNode, path []*htmlNode) {
	tags, classes, ids := pathAttrs(path)
	nodePos, prevTag, nextTag := siblingInfo(el)
	for _, words := range nlp.SplitSentences(text) {
		s := w.b.AddSentence(p, words)
		s.HTMLTag = el.tag
		if s.HTMLTag == "" {
			s.HTMLTag = "#text"
		}
		for k, v := range el.attrs {
			s.HTMLAttrs[k] = v
		}
		s.AncestorTags = tags
		s.AncestorClasses = classes
		s.AncestorIDs = ids
		s.NodePos = nodePos
		s.PrevSibTag = prevTag
		s.NextSibTag = nextTag
		s.Lemmas = lemmas(words)
		s.POS = nlp.Tag(words)
		s.NER = nlp.TagEntities(words)
	}
}

func lemmas(words []string) []string {
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = nlp.Lemmatize(w)
	}
	return out
}

func pathAttrs(path []*htmlNode) (tags, classes, ids []string) {
	for _, n := range path {
		if n.tag == "" || n.tag == "#root" {
			continue
		}
		tags = append(tags, n.tag)
		if c := n.attrs["class"]; c != "" {
			classes = append(classes, c)
		}
		if id := n.attrs["id"]; id != "" {
			ids = append(ids, id)
		}
	}
	return tags, classes, ids
}

func siblingInfo(el *htmlNode) (pos int, prevTag, nextTag string) {
	if el.parent == nil {
		return 0, "", ""
	}
	sibs := el.parent.children
	idx := -1
	elemPos := 0
	for i, s := range sibs {
		if s == el {
			idx = i
			break
		}
		if s.tag != "" {
			elemPos++
		}
	}
	if idx < 0 {
		return 0, "", ""
	}
	for i := idx - 1; i >= 0; i-- {
		if sibs[i].tag != "" {
			prevTag = sibs[i].tag
			break
		}
	}
	for i := idx + 1; i < len(sibs); i++ {
		if sibs[i].tag != "" {
			nextTag = sibs[i].tag
			break
		}
	}
	return elemPos, prevTag, nextTag
}

// collectText concatenates all descendant text of an element, inserting
// spaces at element boundaries: a pre-order walk over an explicit stack.
func collectText(n *htmlNode) string {
	var sb strings.Builder
	stack := []*htmlNode{n}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.tag == "" {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(m.text)
			continue
		}
		for i := len(m.children) - 1; i >= 0; i-- {
			stack = append(stack, m.children[i])
		}
	}
	return sb.String()
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return def
	}
	return v
}
