package parser

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/datamodel"
)

// ParseXML parses a well-formed XML document (e.g. the GENOMICS
// corpus, which is published natively in a tree-based format) into a
// data model Document. The element mapping extends the HTML mapping
// with the JATS-style names used by scientific-article XML:
//
//	sec, section        -> Section
//	title, p, ...       -> Text
//	table-wrap, table   -> Table (caption honored in either)
//	tr/td/th            -> Row/Cell
//
// Documents parsed from XML have no visual modality, matching the
// paper's GENOMICS setting.
func ParseXML(name, src string) (*datamodel.Document, error) {
	dom, err := xmlToDOM(src)
	if err != nil {
		return nil, err
	}
	b := datamodel.NewBuilder(name, "xml")
	w := &htmlWalker{b: b}
	w.walk(dom, nil)
	return b.Finish(), nil
}

// xmlToDOM decodes the XML token stream into the parser's DOM
// representation so the HTML walker can be reused. JATS-ish element
// names are normalized onto their HTML equivalents.
func xmlToDOM(src string) (*htmlNode, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	root := &htmlNode{tag: "#root", attrs: map[string]string{}}
	// depth is cur's distance from root; over counts the open elements
	// that maxElementDepth flattened into siblings, whose end tags
	// therefore close nothing.
	cur, depth, over := root, 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("parser: xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			attrs := map[string]string{}
			for _, a := range t.Attr {
				attrs[strings.ToLower(a.Name.Local)] = a.Value
			}
			if depth == maxElementDepth {
				cur, depth, over = cur.parent, depth-1, over+1
			}
			el := &htmlNode{tag: normalizeXMLTag(t.Name.Local), attrs: attrs, parent: cur}
			cur.children = append(cur.children, el)
			cur, depth = el, depth+1
		case xml.EndElement:
			if over > 0 {
				over--
			} else if cur.parent != nil {
				cur, depth = cur.parent, depth-1
			}
		case xml.CharData:
			appendText(cur, string(t))
		}
	}
	return root, nil
}

// normalizeXMLTag maps JATS-style names onto the HTML names the walker
// understands.
func normalizeXMLTag(local string) string {
	switch l := strings.ToLower(local); l {
	case "sec":
		return "section"
	case "table-wrap":
		return "tablewrap" // transparent container; walker descends
	case "label":
		return "p"
	case "graphic", "fig":
		return "img"
	default:
		return l
	}
}
