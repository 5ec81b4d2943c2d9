package parser

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/datamodel"
)

// VDoc is a rendered visual layout of a document: the flat stream of
// words with page numbers, bounding boxes and font runs that a PDF
// renderer would produce. The synthetic corpus generators emit VDocs in
// place of the paper's PDF-printer output; AlignVisual merges a VDoc
// into a structurally parsed Document.
type VDoc struct {
	Name  string
	Pages int
	Words []VWord
}

// VWord is one rendered word.
type VWord struct {
	Text string
	Page int
	Box  datamodel.Box
	Font datamodel.Font
}

// FormatVDoc serializes a VDoc into the line-oriented "vdoc" format:
//
//	vdoc 1
//	doc <name> pages=<n>
//	font <name> <size> <bold> <italic>      (sets the current font run)
//	w <page> <x0> <y0> <x1> <y1> <word>
func FormatVDoc(v *VDoc) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vdoc 1\ndoc %s pages=%d\n", v.Name, v.Pages)
	var cur datamodel.Font
	first := true
	for _, w := range v.Words {
		if first || w.Font != cur {
			cur = w.Font
			first = false
			fmt.Fprintf(&sb, "font %s %g %d %d\n", nonEmpty(cur.Name), cur.Size, b2i(cur.Bold), b2i(cur.Italic))
		}
		fmt.Fprintf(&sb, "w %d %g %g %g %g %s\n", w.Page, w.Box.X0, w.Box.Y0, w.Box.X1, w.Box.Y1, w.Text)
	}
	return sb.String()
}

func nonEmpty(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxVDocLine is the longest vdoc line ParseVDoc accepts, its newline
// included.
const maxVDocLine = 1 << 20

// ParseVDoc parses the vdoc serialization format.
func ParseVDoc(src string) (*VDoc, error) {
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 4<<10), maxVDocLine) // grows to the limit only for a line that needs it
	v := &VDoc{}
	var font datamodel.Font
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "vdoc":
			if len(fields) != 2 || fields[1] != "1" {
				return nil, fmt.Errorf("parser: vdoc line %d: unsupported version %q", lineNo, line)
			}
		case "doc":
			if len(fields) < 2 {
				return nil, fmt.Errorf("parser: vdoc line %d: malformed doc line", lineNo)
			}
			v.Name = fields[1]
			for _, f := range fields[2:] {
				if strings.HasPrefix(f, "pages=") {
					n, err := strconv.Atoi(f[len("pages="):])
					if err != nil {
						return nil, fmt.Errorf("parser: vdoc line %d: bad pages: %v", lineNo, err)
					}
					v.Pages = n
				}
			}
		case "font":
			if len(fields) != 5 {
				return nil, fmt.Errorf("parser: vdoc line %d: malformed font line", lineNo)
			}
			size, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("parser: vdoc line %d: bad size: %v", lineNo, err)
			}
			name := fields[1]
			if name == "-" {
				name = ""
			}
			font = datamodel.Font{Name: name, Size: size, Bold: fields[3] == "1", Italic: fields[4] == "1"}
		case "w":
			if len(fields) < 7 {
				return nil, fmt.Errorf("parser: vdoc line %d: malformed word line", lineNo)
			}
			page, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("parser: vdoc line %d: bad page: %v", lineNo, err)
			}
			var coords [4]float64
			for i := 0; i < 4; i++ {
				coords[i], err = strconv.ParseFloat(fields[2+i], 64)
				if err != nil {
					return nil, fmt.Errorf("parser: vdoc line %d: bad coordinate: %v", lineNo, err)
				}
			}
			v.Words = append(v.Words, VWord{
				Text: strings.Join(fields[6:], " "),
				Page: page,
				Box:  datamodel.Box{X0: coords[0], Y0: coords[1], X1: coords[2], Y1: coords[3]},
				Font: font,
			})
		default:
			return nil, fmt.Errorf("parser: vdoc line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parser: reading vdoc: %w", err)
	}
	return v, nil
}

// AlignVisual merges the visual attributes of a VDoc into a
// structurally parsed Document by aligning the two word sequences, as
// the paper does when combining the converted-HTML view with the
// rendered-PDF view of an input file. Words are matched by exact text
// using a longest-common-subsequence alignment (equivalent to the
// paper's character + repeat-count check); words the renderer dropped
// or mangled inherit interpolated coordinates from their matched
// neighbors, recovering from conversion errors through redundancy.
//
// It returns the fraction of document words that were matched exactly.
func AlignVisual(d *datamodel.Document, v *VDoc) float64 {
	type ref struct {
		sent *datamodel.Sentence
		idx  int
	}
	var docWords []string
	var refs []ref
	for _, s := range d.Sentences() {
		for i, w := range s.Words {
			docWords = append(docWords, w)
			refs = append(refs, ref{s, i})
		}
		// Pre-size visual slices.
		s.PageNums = make([]int, len(s.Words))
		s.Boxes = make([]datamodel.Box, len(s.Words))
		for i := range s.PageNums {
			s.PageNums[i] = -1
		}
	}
	visWords := make([]string, len(v.Words))
	for i, w := range v.Words {
		visWords[i] = w.Text
	}

	pairs := lcsPairs(docWords, visWords)
	matched := make([]int, len(docWords)) // doc index -> vdoc index or -1
	for i := range matched {
		matched[i] = -1
	}
	for _, p := range pairs {
		matched[p[0]] = p[1]
	}

	// Assign matched words directly.
	for di, vi := range matched {
		if vi < 0 {
			continue
		}
		r := refs[di]
		w := v.Words[vi]
		r.sent.PageNums[r.idx] = w.Page
		r.sent.Boxes[r.idx] = w.Box
		if r.idx == 0 || r.sent.Font == (datamodel.Font{}) {
			r.sent.Font = w.Font
		}
	}
	// Interpolate unmatched words from the nearest matched neighbor in
	// the same sentence, else the nearest matched document word.
	lastVi := -1
	for di := range matched {
		if matched[di] >= 0 {
			lastVi = matched[di]
			continue
		}
		r := refs[di]
		if lastVi >= 0 {
			w := v.Words[lastVi]
			r.sent.PageNums[r.idx] = w.Page
			r.sent.Boxes[r.idx] = datamodel.Box{X0: w.Box.X1, Y0: w.Box.Y0, X1: w.Box.X1 + w.Box.Width(), Y1: w.Box.Y1}
		}
	}
	// Any leading unmatched words inherit from the following match.
	nextVi := -1
	for di := len(matched) - 1; di >= 0; di-- {
		if matched[di] >= 0 {
			nextVi = matched[di]
			continue
		}
		r := refs[di]
		if r.sent.PageNums[r.idx] < 0 && nextVi >= 0 {
			w := v.Words[nextVi]
			r.sent.PageNums[r.idx] = w.Page
			r.sent.Boxes[r.idx] = datamodel.Box{X0: w.Box.X0 - w.Box.Width(), Y0: w.Box.Y0, X1: w.Box.X0, Y1: w.Box.Y1}
		}
	}
	// Sentences with no visual info at all drop their (useless) slices
	// so HasVisual reports false.
	for _, s := range d.Sentences() {
		all := true
		for _, p := range s.PageNums {
			if p < 0 {
				all = false
				break
			}
		}
		if !all || len(s.Words) == 0 {
			s.PageNums = nil
			s.Boxes = nil
		}
	}
	d.Pages = v.Pages
	if len(docWords) == 0 {
		return 0
	}
	return float64(len(pairs)) / float64(len(docWords))
}

// lcsPairs returns index pairs (i, j) of a longest common subsequence
// of a and b. For very large inputs it falls back to a greedy windowed
// matcher to bound memory.
func lcsPairs(a, b []string) [][2]int {
	const maxCells = 16 << 20
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	if len(a)*len(b) > maxCells {
		return greedyPairs(a, b)
	}
	n, m := len(a), len(b)
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var pairs [][2]int
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			pairs = append(pairs, [2]int{i, j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return pairs
}

// greedyPairs matches words left to right with a bounded lookahead
// window; linear time, used for very large documents.
func greedyPairs(a, b []string) [][2]int {
	const window = 64
	var pairs [][2]int
	j := 0
	for i := 0; i < len(a) && j < len(b); i++ {
		limit := j + window
		if limit > len(b) {
			limit = len(b)
		}
		for k := j; k < limit; k++ {
			if a[i] == b[k] {
				pairs = append(pairs, [2]int{i, k})
				j = k + 1
				break
			}
		}
	}
	return pairs
}
