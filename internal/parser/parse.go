package parser

import (
	"fmt"
	"strings"

	"repro/internal/datamodel"
)

// Parse is the one raw-source → Document entry point, shared by the
// serving layer's uploads and the command-line corpus loader. format
// "html" (or "", the default) parses HTML and, when vdoc is non-empty,
// aligns that rendered layout into the document; "xml" parses
// well-formed XML, which carries no visual layout. Errors name the
// document.
//
// The bytes U+001E and U+001F are refused in an HTML source and its
// vdoc: the session store joins a sentence's words and attributes with
// them (core.checkSepFree is its own guard, for documents that were not
// parsed here), and encoding/xml refuses both in an XML source already.
func Parse(name, format, source, vdoc string) (*datamodel.Document, error) {
	switch format {
	case "", "html":
		if hasReserved(source) || hasReserved(vdoc) {
			return nil, fmt.Errorf("document %q: the control characters U+001E and U+001F are reserved and cannot be ingested", name)
		}
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

// hasReserved reports whether s contains U+001E or U+001F (two
// IndexByte scans: this runs over every uploaded source).
func hasReserved(s string) bool {
	return strings.IndexByte(s, 0x1e) >= 0 || strings.IndexByte(s, 0x1f) >= 0
}
