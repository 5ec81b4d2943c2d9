package parser_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/datamodel"
	"repro/internal/parser"
	"repro/internal/synth"
)

// FuzzParseDocument drives the one raw-source entry point the network
// and the command line share with arbitrary format/source/vdoc triples.
// Parse must never panic, and a document it accepts must satisfy what
// the store's persistence layer assumes of every document: dense
// sentence positions, each sentence listed once, per-word textual
// attributes, and visual attributes that are absent or per-word.
func FuzzParseDocument(f *testing.F) {
	elec := synth.Electronics(7, 1).Sources[0]
	f.Add("html", elec["html"], elec["vdoc"])
	f.Add("xml", synth.Genomics(7, 1).Sources[0]["xml"], "")
	f.Add("html", `<table><tr><td rowspan=2>A b c</td><td>1</td></tr><tr><td>2</td></tr></table>`, "")
	f.Add("", `<table><tr><td rowspan=3000000 colspan=3>a</td></tr></table>`, "")
	f.Add("html", spanBomb(4000), "")
	f.Add("html", strings.Repeat("<b>", 300_000)+"x", "")
	f.Add("html", "<p>reserved \x1f separator</p>", "")
	f.Fuzz(func(t *testing.T, format, source, vdoc string) {
		doc, err := parser.Parse("fuzz", format, source, vdoc)
		if err != nil {
			return
		}
		seen := map[*datamodel.Sentence]bool{}
		for i, s := range doc.Sentences() {
			if s.Position != i {
				t.Fatalf("sentence %d has position %d", i, s.Position)
			}
			if seen[s] {
				t.Fatalf("sentence %d (%q) is listed twice", i, s.Text())
			}
			seen[s] = true
			n := len(s.Words)
			if len(s.Lemmas) != n || len(s.POS) != n || len(s.NER) != n {
				t.Fatalf("sentence %d: %d words, %d lemmas, %d POS, %d NER", i, n, len(s.Lemmas), len(s.POS), len(s.NER))
			}
			if (len(s.Boxes) != 0 && len(s.Boxes) != n) || (len(s.PageNums) != 0 && len(s.PageNums) != n) {
				t.Fatalf("sentence %d: %d words, %d boxes, %d page numbers", i, n, len(s.Boxes), len(s.PageNums))
			}
		}
	})
}

// spanBomb is one cell spanning every row and HTML's widest colspan over
// n empty rows: 36 KB of source at n = 4000.
func spanBomb(n int) string {
	return `<table><tr><td rowspan=` + strconv.Itoa(n+1) + ` colspan=1000>x</td></tr>` + strings.Repeat("<tr></tr>", n) + `</table>`
}
