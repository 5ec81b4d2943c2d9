// Package features implements Fonduer's extended feature library
// (Section 4.2, Appendix B): the automatically generated structural,
// tabular and visual features that augment the Bi-LSTM's textual
// representation, plus textual context features used by the
// human-tuned baseline. Feature generation traverses the data model to
// compute features from the modality attributes stored in its nodes.
//
// The package also implements the mention-level feature cache of
// Appendix C.1: because each mention participates in many candidates,
// unary (per-mention) features are computed once per mention per
// document and reused, which the paper measures at a 100x average
// speedup in ELECTRONICS.
package features

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/candidates"
	"repro/internal/datamodel"
)

// Modality classifies a feature by the data modality it derives from.
type Modality int

// The four modalities of richly formatted data.
const (
	Textual Modality = iota
	Structural
	Tabular
	Visual
)

// String returns the modality's name.
func (m Modality) String() string {
	switch m {
	case Textual:
		return "textual"
	case Structural:
		return "structural"
	case Tabular:
		return "tabular"
	case Visual:
		return "visual"
	default:
		return fmt.Sprintf("modality(%d)", int(m))
	}
}

// Feature is one named feature with its modality. Features are
// represented as strings (Appendix B) and mapped to indicator columns
// by an Index.
type Feature struct {
	Name     string
	Modality Modality
}

// CacheStats reports mention-cache effectiveness.
type CacheStats struct {
	Hits, Misses int
}

// HitRate returns hits / (hits+misses), or 0 for an unused cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Extractor generates multimodal features for candidates. The zero
// value is not usable; construct with NewExtractor.
type Extractor struct {
	// UseCache enables the Appendix C.1 mention-level cache.
	UseCache bool
	// Disabled switches off one or more modalities (the Figure 7
	// feature-ablation knob).
	Disabled map[Modality]bool

	cache    map[string][]Feature
	cacheDoc *datamodel.Document // cache is flushed per document
	stats    CacheStats
	// named holds, per argument position and span key, the cached unary
	// features under their position-prefixed names, so the candidates of
	// a document that share a mention share its name strings. Flushed
	// with cache; not counted in stats.
	named map[argSpan][]Feature
	last  int // how many features the last candidate had: the next one's size hint
}

type argSpan struct {
	arg  int
	span string
}

// NewExtractor returns an extractor with caching enabled and all
// modalities active.
func NewExtractor() *Extractor {
	return &Extractor{
		UseCache: true,
		Disabled: map[Modality]bool{},
		cache:    map[string][]Feature{},
	}
}

// Stats returns cache statistics accumulated so far.
func (e *Extractor) Stats() CacheStats { return e.stats }

// enabled reports whether a modality is active.
func (e *Extractor) enabled(m Modality) bool { return !e.Disabled[m] }

// Featurize returns the features of a candidate: the union of each
// mention's unary features (prefixed by argument position) and the
// binary features relating mention pairs.
func (e *Extractor) Featurize(c *candidates.Candidate) []Feature {
	// Flush the cache at document boundaries: Fonduer operates on
	// documents atomically, so caching one document at a time bounds
	// memory (Appendix C.1).
	if doc := c.Doc(); doc != e.cacheDoc {
		e.cacheDoc = doc
		e.cache = map[string][]Feature{}
		e.named = map[argSpan][]Feature{}
	}
	out := make([]Feature, 0, e.last) // a document's candidates are alike
	for i, m := range c.Mentions {
		out = append(out, e.argFeatures(i, m.Span)...)
	}
	for i := 0; i < len(c.Mentions); i++ {
		for j := i + 1; j < len(c.Mentions); j++ {
			out = append(out, e.pairFeatures(c.Mentions[i].Span, c.Mentions[j].Span)...)
		}
	}
	e.last = len(out)
	return out
}

// argFeatures returns the unary features of the span as argument arg of
// a candidate: mentionFeatures, each name prefixed by the position.
func (e *Extractor) argFeatures(arg int, sp datamodel.Span) []Feature {
	key := argSpan{arg, sp.Key()}
	fs := e.mentionFeatures(sp, key.span)
	if named, ok := e.named[key]; ok && e.UseCache {
		return named
	}
	prefix := fmt.Sprintf("e%d_", arg)
	named := make([]Feature, len(fs))
	for k, f := range fs {
		named[k] = Feature{Name: prefix + f.Name, Modality: f.Modality}
	}
	if e.UseCache {
		e.named[key] = named
	}
	return named
}

// mentionFeatures returns (and caches, under the span's key) the unary
// features of one span.
func (e *Extractor) mentionFeatures(sp datamodel.Span, key string) []Feature {
	if e.UseCache {
		if fs, ok := e.cache[key]; ok {
			e.stats.Hits++
			return fs
		}
		e.stats.Misses++
	}
	fs := e.computeMentionFeatures(sp)
	if e.UseCache {
		e.cache[key] = fs
	}
	return fs
}

func (e *Extractor) computeMentionFeatures(sp datamodel.Span) []Feature {
	var out []Feature
	add := func(m Modality, format string, args ...any) {
		if e.enabled(m) {
			out = append(out, Feature{Name: fmt.Sprintf(format, args...), Modality: m})
		}
	}
	sent := sp.Sentence

	// ---- Textual features (window and content n-grams). The LSTM
	// learns deep textual context; these shallow ones serve the
	// human-tuned baseline and the final-layer feature library.
	if e.enabled(Textual) {
		for i := sp.Start; i < sp.End; i++ {
			add(Textual, "WORD_%s", strings.ToLower(sent.Words[i]))
			if len(sent.Lemmas) == len(sent.Words) {
				add(Textual, "LEMMA_%s", sent.Lemmas[i])
			}
			if len(sent.POS) == len(sent.Words) {
				add(Textual, "POS_%s", sent.POS[i])
			}
			if len(sent.NER) == len(sent.Words) {
				add(Textual, "NER_%s", sent.NER[i])
			}
		}
		for w := 1; w <= 2; w++ {
			if sp.Start-w >= 0 {
				add(Textual, "LEFT%d_%s", w, strings.ToLower(sent.Words[sp.Start-w]))
			}
			if sp.End+w-1 < len(sent.Words) {
				add(Textual, "RIGHT%d_%s", w, strings.ToLower(sent.Words[sp.End+w-1]))
			}
		}
		add(Textual, "SPAN_LEN_%d", sp.Len())
	}

	// ---- Structural features (Table 7, structural unary rows).
	if e.enabled(Structural) {
		if sent.HTMLTag != "" {
			add(Structural, "TAG_%s", sent.HTMLTag)
		}
		// Sorted keys: feature emission order must be deterministic —
		// the persisted Features relation keeps per-candidate emission
		// order (its seq column), and cross-backend snapshot
		// byte-identity quantifies over it.
		attrKeys := make([]string, 0, len(sent.HTMLAttrs))
		for k := range sent.HTMLAttrs {
			attrKeys = append(attrKeys, k)
		}
		sort.Strings(attrKeys)
		for _, k := range attrKeys {
			if v := sent.HTMLAttrs[k]; v == "" {
				add(Structural, "HTML_ATTR_%s", k)
			} else {
				add(Structural, "HTML_ATTR_%s=%s", k, v)
			}
		}
		if n := len(sent.AncestorTags); n > 0 {
			add(Structural, "PARENT_TAG_%s", sent.AncestorTags[n-1])
			add(Structural, "ANCESTOR_TAG_%s", strings.Join(sent.AncestorTags, ">"))
		}
		for _, cl := range sent.AncestorClasses {
			add(Structural, "ANCESTOR_CLASS_%s", cl)
		}
		for _, id := range sent.AncestorIDs {
			add(Structural, "ANCESTOR_ID_%s", id)
		}
		add(Structural, "NODE_POS_%d", sent.NodePos)
		if sent.PrevSibTag != "" {
			add(Structural, "PREV_SIB_TAG_%s", sent.PrevSibTag)
		}
		if sent.NextSibTag != "" {
			add(Structural, "NEXT_SIB_TAG_%s", sent.NextSibTag)
		}
	}

	// ---- Tabular features (Table 7, tabular unary rows).
	if e.enabled(Tabular) {
		if cell := sp.Cell(); cell != nil {
			add(Tabular, "ROW_NUM_%d", cell.RowStart)
			add(Tabular, "COL_NUM_%d", cell.ColStart)
			add(Tabular, "ROW_SPAN_%d", cell.RowSpan())
			add(Tabular, "COL_SPAN_%d", cell.ColSpan())
			for _, g := range datamodel.CellNgrams(sp) {
				add(Tabular, "CELL_%s", g)
			}
			for _, g := range datamodel.RowNgrams(sp) {
				add(Tabular, "ROW_%s", g)
			}
			for _, g := range datamodel.ColNgrams(sp) {
				add(Tabular, "COL_%s", g)
			}
			for _, g := range datamodel.RowHeaderNgrams(sp) {
				add(Tabular, "ROW_HEAD_%s", g)
			}
			for _, g := range datamodel.ColHeaderNgrams(sp) {
				add(Tabular, "COL_HEAD_%s", g)
			}
		} else {
			add(Tabular, "NOT_IN_TABLE")
		}
	}

	// ---- Visual features (Table 7, visual unary rows).
	if e.enabled(Visual) && sp.HasVisual() {
		add(Visual, "PAGE_%d", sp.Page())
		for _, g := range datamodel.AlignedNgrams(sp) {
			add(Visual, "ALIGNED_%s", g)
		}
		f := sent.Font
		if f.Name != "" {
			add(Visual, "FONT_%s", f.Name)
		}
		if f.Size > 0 {
			add(Visual, "FONT_SIZE_%d", int(f.Size))
		}
		if f.Bold {
			add(Visual, "FONT_BOLD")
		}
		if f.Italic {
			add(Visual, "FONT_ITALIC")
		}
	}
	return out
}

// pairFeatures returns the binary features relating two spans
// (Table 7, binary rows).
func (e *Extractor) pairFeatures(a, b datamodel.Span) []Feature {
	var out []Feature
	add := func(m Modality, format string, args ...any) {
		if e.enabled(m) {
			out = append(out, Feature{Name: fmt.Sprintf(format, args...), Modality: m})
		}
	}

	if e.enabled(Structural) {
		if tags := datamodel.CommonAncestorTags(a, b); len(tags) > 0 {
			add(Structural, "COMMON_ANCESTOR_%s", strings.Join(tags, ">"))
		}
		if d := datamodel.MinDistToLCA(a, b); d >= 0 {
			add(Structural, "LOWEST_ANCESTOR_DEPTH_%d", d)
		}
		if d := datamodel.LCADepth(a, b); d >= 0 {
			add(Structural, "LCA_DEPTH_%d", d)
		}
	}

	if e.enabled(Tabular) {
		ca, cb := a.Cell(), b.Cell()
		switch {
		case datamodel.SameTable(a, b):
			add(Tabular, "SAME_TABLE")
			add(Tabular, "SAME_TABLE_ROW_DIFF_%d", absInt(ca.RowStart-cb.RowStart))
			add(Tabular, "SAME_TABLE_COL_DIFF_%d", absInt(ca.ColStart-cb.ColStart))
			add(Tabular, "SAME_TABLE_MANHATTAN_DIST_%d", datamodel.ManhattanDist(a, b))
			if datamodel.SameCell(a, b) {
				add(Tabular, "SAME_CELL")
				if datamodel.SameSentence(a, b) {
					add(Tabular, "SAME_PHRASE")
					add(Tabular, "WORD_DIFF_%d", wordDiff(a, b))
					add(Tabular, "CHAR_DIFF_%d", charDiff(a, b))
				}
			}
			if datamodel.SameRow(a, b) {
				add(Tabular, "SAME_ROW")
			}
			if datamodel.SameCol(a, b) {
				add(Tabular, "SAME_COL")
			}
		case ca != nil && cb != nil:
			add(Tabular, "DIFF_TABLE")
			add(Tabular, "DIFF_TABLE_ROW_DIFF_%d", absInt(ca.RowStart-cb.RowStart))
			add(Tabular, "DIFF_TABLE_COL_DIFF_%d", absInt(ca.ColStart-cb.ColStart))
			add(Tabular, "DIFF_TABLE_MANHATTAN_DIST_%d", absInt(ca.RowStart-cb.RowStart)+absInt(ca.ColStart-cb.ColStart))
		}
	}

	if e.enabled(Visual) && a.HasVisual() && b.HasVisual() {
		if datamodel.SamePage(a, b) {
			add(Visual, "SAME_PAGE")
		}
		if datamodel.HorzAligned(a, b) {
			add(Visual, "HORZ_ALIGNED")
		}
		if datamodel.VertAligned(a, b) {
			add(Visual, "VERT_ALIGNED")
		}
		if datamodel.VertAlignedLeft(a, b) {
			add(Visual, "VERT_ALIGNED_LEFT")
		}
		if datamodel.VertAlignedRight(a, b) {
			add(Visual, "VERT_ALIGNED_RIGHT")
		}
		if datamodel.VertAlignedCenter(a, b) {
			add(Visual, "VERT_ALIGNED_CENTER")
		}
		add(Visual, "PAGE_DIFF_%d", absInt(a.Page()-b.Page()))
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// wordDiff is the word distance between two spans of one sentence.
func wordDiff(a, b datamodel.Span) int {
	if a.Start >= b.End {
		return a.Start - b.End + 1
	}
	if b.Start >= a.End {
		return b.Start - a.End + 1
	}
	return 0
}

// charDiff is the character distance between two spans of one sentence.
func charDiff(a, b datamodel.Span) int {
	lo, hi := a, b
	if b.Start < a.Start {
		lo, hi = b, a
	}
	n := 0
	for i := lo.End; i < hi.Start && i < len(a.Sentence.Words); i++ {
		n += len(a.Sentence.Words[i]) + 1
	}
	return n
}

// Index maps feature names to dense column ids, the relation
// Features(id_candidate, ...) of Section 3.2. Index can be frozen so
// test-set featurization cannot grow the feature space.
type Index struct {
	ids    map[string]int
	names  []string
	frozen bool
}

// NewIndex returns an empty feature index.
func NewIndex() *Index { return &Index{ids: map[string]int{}} }

// ID returns the column for a feature name, allocating unless frozen
// (frozen indexes return -1 for unseen names).
func (ix *Index) ID(name string) int {
	if id, ok := ix.ids[name]; ok {
		return id
	}
	if ix.frozen {
		return -1
	}
	id := len(ix.names)
	ix.ids[name] = id
	ix.names = append(ix.names, name)
	return id
}

// Lookup returns the column for a feature name without ever
// allocating a new id — the read-only probe used by the store-backed
// pipeline when materializing candidate rows against the session
// index.
func (ix *Index) Lookup(name string) (int, bool) {
	id, ok := ix.ids[name]
	return id, ok
}

// Name returns the feature name for a column id.
func (ix *Index) Name(id int) string {
	if id < 0 || id >= len(ix.names) {
		return ""
	}
	return ix.names[id]
}

// Len returns the number of distinct features seen.
func (ix *Index) Len() int { return len(ix.names) }

// NamesView returns the feature names in column order without copying.
// The slice is capped at the current length and an index only ever
// appends, so it stays valid and unchanged however the index grows
// afterwards — what lets a published StoreView share the live session
// index's names with the writer. Read-only.
func (ix *Index) NamesView() []string { return ix.names[:len(ix.names):len(ix.names)] }

// Freeze stops the index from growing.
func (ix *Index) Freeze() { ix.frozen = true }

// IndexFromCounts builds a frozen index from a feature-frequency map,
// admitting names occurring at least minCount times, in sorted name
// order — the deterministic index construction of the pipeline's
// Index stage. Column ids therefore never depend on map iteration or
// on the order per-document counts were merged in.
func IndexFromCounts(counts map[string]int, minCount int) *Index {
	names := make([]string, 0, len(counts))
	for name, n := range counts {
		if n >= minCount {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ix := NewIndex()
	for _, name := range names {
		ix.ID(name)
	}
	ix.Freeze()
	return ix
}
