package parser

import (
	"fmt"

	"repro/internal/datamodel"
)

// Parse is the one raw-source → Document entry point, shared by the
// serving layer's uploads and the command-line corpus loader. format
// "html" (or "", the default) parses HTML and, when vdoc is non-empty,
// aligns that rendered layout into the document; "xml" parses
// well-formed XML, which carries no visual layout. Errors name the
// document.
func Parse(name, format, source, vdoc string) (*datamodel.Document, error) {
	switch format {
	case "", "html":
		doc := ParseHTML(name, source)
		if vdoc != "" {
			v, err := ParseVDoc(vdoc)
			if err != nil {
				return nil, fmt.Errorf("document %q: vdoc: %w", name, err)
			}
			AlignVisual(doc, v)
		}
		return doc, nil
	case "xml":
		if vdoc != "" {
			return nil, fmt.Errorf("document %q: xml documents carry no visual layout", name)
		}
		doc, err := ParseXML(name, source)
		if err != nil {
			return nil, fmt.Errorf("document %q: %w", name, err)
		}
		return doc, nil
	default:
		return nil, fmt.Errorf("document %q: unknown format %q", name, format)
	}
}
