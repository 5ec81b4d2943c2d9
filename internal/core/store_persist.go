package core

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datamodel"
	"repro/internal/kbase"
)

// The store's relations as a snapshot writes them, each fact in one of
// them. Everything a resumed session needs survives here: the
// documents with their cache statistics, the data model's sentence
// layer with its multimodal attributes and table grid (so training,
// tuple extraction AND labeling-function application all see the same
// values after a resume), the Candidates relation as mention spans,
// the index-independent Features relation (feature *names* per
// candidate, so the numeric matrix can be re-derived under any frozen
// index, and the feature counts summed from it), the Labels votes, and
// a meta table pinning the session's configuration.
const (
	tblDocuments = "documents"
	tblSentences = "sentences"
	tblCands     = "candidates"
	tblFeatures  = "features"
	tblLabels    = "labels"
	tblMeta      = "meta"
)

// wordSep joins list items (words, tags, attribute pairs) inside one
// sentences-relation field; fieldSep joins the components of one item
// (an attribute's key/value, a box's coordinates). Values containing
// these control bytes are rejected at persist time (checkSepFree)
// rather than silently corrupting the round trip.
const (
	wordSep  = "\x1f"
	fieldSep = "\x1e"
)

// storeFormat versions the snapshot layout: storeSchemas below, pinned
// by TestStoreSchemasMatchFormat.
const storeFormat = "3"

func mustSchema(name string, cols ...string) kbase.Schema {
	s, err := kbase.NewSchema(name, cols...)
	if err != nil {
		// Unreachable from input or I/O: every caller passes the column
		// literals of storeSchemas, at package initialization.
		panic("core: " + err.Error())
	}
	return s
}

var storeSchemas = []kbase.Schema{
	// One row per document, in ingestion order, with its featurization
	// cache statistics.
	mustSchema(tblDocuments, "pos:integer", "name", "format", "hits:integer", "misses:integer"),
	// One row per sentence, carrying every attribute the data model
	// records at sentence granularity — textual, structural, visual —
	// plus the containing table cell's grid coordinates (tbl = -1 for
	// non-tabular sentences), so the document DAG's leaf layer
	// restores faithfully.
	mustSchema(tblSentences, "doc", "pos:integer", "words", "lemmas", "pos_tags", "ner",
		"htmltag", "attrs", "ancestor_tags", "ancestor_classes", "ancestor_ids",
		"nodepos:integer", "prevsib", "nextsib", "pages", "boxes", "font",
		"tbl:integer", "row_start:integer", "row_end:integer", "col_start:integer", "col_end:integer", "header:integer"),
	mustSchema(tblCands, "cand:integer", "arg:integer", "type", "doc", "sent:integer", "start:integer", "end:integer"),
	mustSchema(tblFeatures, "cand:integer", "seq:integer", "feature"),
	mustSchema(tblLabels, "cand:integer", "lf:integer", "vote:integer"),
	mustSchema(tblMeta, "key", "value"),
}

// ---- sentence-attribute field codecs.

func joinList(xs []string) string { return strings.Join(xs, wordSep) }

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, wordSep)
}

// encodeAttrs flattens an attribute map deterministically (sorted
// keys) into key/value pairs.
func encodeAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + fieldSep + attrs[k]
	}
	return joinList(pairs)
}

func decodeAttrs(s string) map[string]string {
	out := map[string]string{}
	for _, pair := range splitList(s) {
		k, v, _ := strings.Cut(pair, fieldSep)
		out[k] = v
	}
	return out
}

// encodeInts, encodeBoxes and encodeFont build their field in one
// buffer — on the stack for a sentence of ordinary length — and copy it
// out once.
func encodeInts(xs []int) string {
	var stack [256]byte
	buf := stack[:0]
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, wordSep...)
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return string(buf)
}

func decodeInts(s string) ([]int, error) {
	parts := splitList(s)
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func appendFloat(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'g', -1, 64) }

func encodeBoxes(bs []datamodel.Box) string {
	var stack [1024]byte
	buf := stack[:0]
	for i, b := range bs {
		if i > 0 {
			buf = append(buf, wordSep...)
		}
		for j, v := range [4]float64{b.X0, b.Y0, b.X1, b.Y1} {
			if j > 0 {
				buf = append(buf, fieldSep...)
			}
			buf = appendFloat(buf, v)
		}
	}
	return string(buf)
}

func decodeBoxes(s string) ([]datamodel.Box, error) {
	parts := splitList(s)
	out := make([]datamodel.Box, len(parts))
	for i, p := range parts {
		var c [4]float64
		fields := strings.Split(p, fieldSep)
		if len(fields) != 4 {
			return nil, fmt.Errorf("core: malformed box %q", p)
		}
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, err
			}
			c[j] = v
		}
		out[i] = datamodel.Box{X0: c[0], Y0: c[1], X1: c[2], Y1: c[3]}
	}
	return out, nil
}

func encodeFont(f datamodel.Font) string {
	if f == (datamodel.Font{}) {
		return ""
	}
	var stack [128]byte
	buf := append(append(stack[:0], f.Name...), fieldSep...)
	buf = append(appendFloat(buf, f.Size), fieldSep...)
	buf = append(strconv.AppendBool(buf, f.Bold), fieldSep...)
	return string(strconv.AppendBool(buf, f.Italic))
}

func decodeFont(s string) (datamodel.Font, error) {
	if s == "" {
		return datamodel.Font{}, nil
	}
	fields := strings.Split(s, fieldSep)
	if len(fields) != 4 {
		return datamodel.Font{}, fmt.Errorf("core: malformed font %q", s)
	}
	size, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return datamodel.Font{}, err
	}
	return datamodel.Font{Name: fields[0], Size: size, Bold: fields[2] == "true", Italic: fields[3] == "true"}, nil
}

// checkSepFree rejects values containing the reserved separator
// bytes: rather than silently corrupting the snapshot round-trip, a
// document carrying them is refused with a clear error.
func checkSepFree(ss ...string) error {
	for _, s := range ss {
		if strings.ContainsAny(s, wordSep+fieldSep) {
			return fmt.Errorf("value %q contains the reserved separator bytes \\x1f/\\x1e and cannot be persisted", s)
		}
	}
	return nil
}

// checkPersistable is the validate half of AddDocuments for one
// document: every string attribute sentenceTuple joins with the
// separators must be free of them. parser.Parse already refuses such
// sources, so this is the guard for programmatically built documents.
func checkPersistable(d *datamodel.Document) error {
	for _, sent := range d.Sentences() {
		err := checkSepFree(sent.HTMLTag, sent.PrevSibTag, sent.NextSibTag, sent.Font.Name)
		for _, list := range [][]string{sent.Words, sent.Lemmas, sent.POS, sent.NER, sent.AncestorTags, sent.AncestorClasses, sent.AncestorIDs} {
			if err == nil {
				err = checkSepFree(list...)
			}
		}
		for k, v := range sent.HTMLAttrs {
			if err == nil {
				err = checkSepFree(k, v)
			}
		}
		if err != nil {
			return fmt.Errorf("%w: document %q sentence %d: %v", ErrInvalidDocument, d.Name, sent.Position, err)
		}
	}
	return nil
}

// appendSentence flattens one sentence (and its cell linkage) into a
// sentences-relation row of b. The sentence has passed checkPersistable.
func appendSentence(b *kbase.Batch, docName string, sent *datamodel.Sentence) {
	tbl, rs, re, cs, ce, header := -1, 0, 0, 0, 0, 0
	if cell := sent.Cell(); cell != nil {
		tbl = cell.Table.Position
		rs, re, cs, ce = cell.RowStart, cell.RowEnd, cell.ColStart, cell.ColEnd
		if cell.IsHeader {
			header = 1
		}
	}
	col := 0 // the cells go in schema order
	str := func(v string) { b.AppendString(col, v); col++ }
	num := func(v int) { b.AppendInt(col, int64(v)); col++ }
	str(docName)
	num(sent.Position)
	str(joinList(sent.Words))
	str(joinList(sent.Lemmas))
	str(joinList(sent.POS))
	str(joinList(sent.NER))
	str(sent.HTMLTag)
	str(encodeAttrs(sent.HTMLAttrs))
	str(joinList(sent.AncestorTags))
	str(joinList(sent.AncestorClasses))
	str(joinList(sent.AncestorIDs))
	num(sent.NodePos)
	str(sent.PrevSibTag)
	str(sent.NextSibTag)
	str(encodeInts(sent.PageNums))
	str(encodeBoxes(sent.Boxes))
	str(encodeFont(sent.Font))
	for _, v := range [...]int{tbl, rs, re, cs, ce, header} {
		num(v)
	}
}

// sentRow is the decoded form of one sentences-relation row.
type sentRow struct {
	pos                                     int
	words, lemmas, posTags, ner             []string
	htmlTag                                 string
	attrs                                   map[string]string
	ancTags, ancClasses, ancIDs             []string
	nodePos                                 int
	prevSib, nextSib                        string
	pages                                   []int
	boxes                                   []datamodel.Box
	font                                    datamodel.Font
	tbl, rowStart, rowEnd, colStart, colEnd int
	header                                  bool
}

func decodeSentence(x cells) (sentRow, error) {
	r := sentRow{
		pos:     x.num(1),
		words:   splitList(x.str(2)),
		lemmas:  splitList(x.str(3)),
		posTags: splitList(x.str(4)),
		ner:     splitList(x.str(5)),
		htmlTag: x.str(6), attrs: decodeAttrs(x.str(7)),
		ancTags: splitList(x.str(8)), ancClasses: splitList(x.str(9)), ancIDs: splitList(x.str(10)),
		nodePos: x.num(11), prevSib: x.str(12), nextSib: x.str(13),
		tbl: x.num(17), rowStart: x.num(18), rowEnd: x.num(19),
		colStart: x.num(20), colEnd: x.num(21), header: x.num(22) == 1,
	}
	var err error
	if r.pages, err = decodeInts(x.str(14)); err != nil {
		return r, err
	}
	if r.boxes, err = decodeBoxes(x.str(15)); err != nil {
		return r, err
	}
	if r.font, err = decodeFont(x.str(16)); err != nil {
		return r, err
	}
	return r, nil
}

// rebuildDoc reconstructs one document's data model from its sentence
// rows, which must hold positions 0, 1, 2, … in that order: text
// paragraphs for plain runs, tables with their cell grid for tabular
// runs, every sentence attribute restored. The rebuilt walk order must
// reproduce the stored sentence positions; that invariant is verified
// after Finalize.
func rebuildDoc(name, format string, rows []sentRow) (*datamodel.Document, error) {
	b := datamodel.NewBuilder(name, format)
	var curText *datamodel.Paragraph
	var made []*datamodel.Sentence
	tables := map[int]*datamodel.Table{}
	cellParas := map[int]map[[4]int]*datamodel.Paragraph{}
	for k, r := range rows {
		if r.pos != k {
			return nil, fmt.Errorf("core: sentences relation: document %q has sentence position %d, want %d", name, r.pos, k)
		}
		if r.tbl >= 0 && (r.rowStart < 0 || r.rowStart > r.rowEnd || r.colStart < 0 || r.colStart > r.colEnd) {
			return nil, fmt.Errorf("core: sentences relation: document %q sentence %d has table-cell rows [%d,%d] and columns [%d,%d]",
				name, r.pos, r.rowStart, r.rowEnd, r.colStart, r.colEnd)
		}
		var sent *datamodel.Sentence
		if r.tbl < 0 {
			if curText == nil {
				curText = b.AddParagraph(b.AddText())
			}
			sent = b.AddSentence(curText, r.words)
		} else {
			curText = nil
			t, ok := tables[r.tbl]
			if !ok {
				t = b.AddTable()
				tables[r.tbl] = t
				cellParas[r.tbl] = map[[4]int]*datamodel.Paragraph{}
			}
			key := [4]int{r.rowStart, r.rowEnd, r.colStart, r.colEnd}
			p, ok := cellParas[r.tbl][key]
			if !ok {
				for len(t.Rows) <= r.rowEnd {
					b.AddRow(t)
				}
				cell := b.AddCell(t, r.rowStart, r.rowEnd, r.colStart, r.colEnd)
				cell.IsHeader = r.header
				p = b.AddParagraph(cell)
				cellParas[r.tbl][key] = p
			}
			sent = b.AddSentence(p, r.words)
		}
		sent.Lemmas, sent.POS, sent.NER = r.lemmas, r.posTags, r.ner
		sent.HTMLTag, sent.HTMLAttrs = r.htmlTag, r.attrs
		sent.AncestorTags, sent.AncestorClasses, sent.AncestorIDs = r.ancTags, r.ancClasses, r.ancIDs
		sent.NodePos, sent.PrevSibTag, sent.NextSibTag = r.nodePos, r.prevSib, r.nextSib
		sent.PageNums, sent.Boxes, sent.Font = r.pages, r.boxes, r.font
		made = append(made, sent)
	}
	doc := b.Finish()
	// Finalize renumbers positions in walk order; the stored positions
	// are only faithful if the walk visits sentences exactly in the
	// order they were stored (true for row-major tables, which is how
	// every parser and generator lays cells out — verified here rather
	// than assumed).
	got := doc.Sentences()
	if len(got) != len(made) {
		return nil, fmt.Errorf("core: sentences relation: document %q rebuilt with %d sentences, want %d", name, len(got), len(made))
	}
	for k := range got {
		if got[k] != made[k] {
			return nil, fmt.Errorf("core: sentences relation: document %q did not rebuild in stored sentence order", name)
		}
	}
	return doc, nil
}

// checkBackend refuses an unknown Options.Backend by name; a valid one
// only names the kind StorageStats echoes.
func checkBackend(opts Options) error {
	if !kbase.ValidBackendKind(opts.Backend) {
		return fmt.Errorf("core: unknown backend %q (want %s)", opts.Backend, kbase.BackendKindsWant())
	}
	return nil
}

// configMeta captures the options that shape the store's persisted
// relations; a snapshot can only be resumed under a matching
// configuration (runtime knobs — seed, epochs, threshold, workers —
// are free to change between invocations).
func (s *Store) configMeta() map[string]string {
	mods := slices.Clone(s.opts.DisabledModalities)
	slices.Sort(mods)
	modStrs := make([]string, len(mods))
	for i, m := range mods {
		modStrs[i] = strconv.Itoa(int(m))
	}
	lfNames := make([]string, len(s.lfs))
	for i, lf := range s.lfs {
		lfNames[i] = lf.Name
	}
	return map[string]string{
		"format":   storeFormat,
		"relation": s.task.Relation,
		"num_lfs":  strconv.Itoa(len(s.lfs)),
		// The ordered labeling-function name list: persisted votes are
		// only valid for the exact LF sequence that produced them, so
		// resuming with reordered, added, removed or renamed LFs is
		// rejected (same-name logic edits remain undetectable — code
		// cannot be fingerprinted — and are the caller's contract).
		"lfs":                 joinList(lfNames),
		"variant":             strconv.Itoa(int(s.opts.Variant)),
		"scope":               strconv.Itoa(int(s.opts.Scope)),
		"min_feature_count":   strconv.Itoa(s.opts.MinFeatureCount),
		"no_feature_cache":    strconv.FormatBool(s.opts.NoFeatureCache),
		"no_throttlers":       strconv.FormatBool(s.opts.NoThrottlers),
		"disabled_modalities": strings.Join(modStrs, ","),
	}
}

// streamChunk is how many rows stream puts in a batch before it flushes.
const streamChunk = 1024

// stream hands the relation's rows to flush in one batch of at most
// streamChunk rows, refilled, and returns flush's first error. It is the
// one row source of Snapshot and DB, read from the store's own
// structures, in key order: documents by position, sentences by
// document then position, candidates by id then argument, features by
// candidate then seq, labels by candidate then LF (abstains left out),
// meta by key.
func (s *Store) stream(relation string, flush func(*kbase.Batch) error) error {
	b := kbase.NewBatch(storeSchema(relation), streamChunk)
	var err error
	row := func() { // after each row; once a flush failed, rows are dropped
		if b.Len() == streamChunk {
			if err == nil {
				err = flush(b)
			}
			b.Reset()
		}
	}
	switch relation {
	case tblDocuments:
		for _, sd := range s.docs {
			b.AppendInt(0, int64(sd.pos))
			b.AppendString(1, sd.name)
			b.AppendString(2, sd.format)
			b.AppendInt(3, int64(sd.stats.Hits))
			b.AppendInt(4, int64(sd.stats.Misses))
			row()
		}
	case tblSentences:
		for _, sd := range s.docs {
			for _, sent := range sd.doc.Sentences() {
				appendSentence(b, sd.name, sent)
				row()
			}
		}
	case tblCands:
		for _, sd := range s.docs {
			for _, c := range sd.cands {
				for a, m := range c.Mentions {
					b.AppendInt(0, int64(c.ID))
					b.AppendInt(1, int64(a))
					b.AppendString(2, m.TypeName)
					b.AppendString(3, sd.name)
					b.AppendInt(4, int64(m.Span.Sentence.Position))
					b.AppendInt(5, int64(m.Span.Start))
					b.AppendInt(6, int64(m.Span.End))
					row()
				}
			}
		}
	case tblFeatures:
		for id, ids := range s.names {
			for seq, f := range ids {
				b.AppendInt(0, int64(id))
				b.AppendInt(1, int64(seq))
				b.AppendString(2, s.feats.Name(int(f)))
				row()
			}
		}
	case tblLabels:
		for id, votes := range s.votes {
			for lf, v := range votes {
				if v != 0 {
					b.AppendInt(0, int64(id))
					b.AppendInt(1, int64(lf))
					b.AppendInt(2, int64(v))
					row()
				}
			}
		}
	case tblMeta:
		meta := s.configMeta()
		keys := make([]string, 0, len(meta))
		for k := range meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.AppendString(0, k)
			b.AppendString(1, meta[k])
			row()
		}
	}
	if err == nil && b.Len() > 0 {
		err = flush(b)
	}
	return err
}

// Snapshot writes the store's relations to dir as a kbase snapshot
// directory (one TSV per relation plus a manifest), each streamed from
// the store's structures a bounded batch at a time; OpenStore resumes it.
// Snapshot reads the entire relation set, so it takes the mutation guard:
// it must run on the writer goroutine, exactly like a write.
func (s *Store) Snapshot(dir string) error {
	if err := s.beginMutation(); err != nil {
		return err
	}
	defer s.endMutation(false)
	names := make([]string, len(storeSchemas))
	for i, schema := range storeSchemas {
		names[i] = schema.Name
	}
	sort.Strings(names) // the MANIFEST order
	return kbase.WriteSnapshot(dir, names, func(name string, w io.Writer) error {
		tw := kbase.NewTSVWriter(w, storeSchema(name))
		if err := s.stream(name, tw.WriteBatch); err != nil {
			return err
		}
		return tw.Flush()
	})
}

// DB builds the store's relations anew, as memory-engine tables (sets
// over whole rows) of the rows Snapshot streams; nothing the store does
// reads them.
//
// Deprecated: DB copies the whole session, for the benchmark's traced
// replay only; it goes with the paged kinds (ROADMAP item 13(b)).
func (s *Store) DB() *kbase.DB {
	db := kbase.NewDB()
	for _, schema := range storeSchemas {
		tbl, err := db.Create(schema)
		if err == nil {
			err = s.stream(schema.Name, func(b *kbase.Batch) error {
				_, err := tbl.InsertBatch(b)
				return err
			})
		}
		if err != nil {
			// Unreachable from input or I/O: the schemas have distinct
			// names, the memory engine does no I/O, and the store's rows
			// have storeSchemas' columns and types.
			panic("core: " + err.Error())
		}
	}
	return db
}

// storeSchema returns the storeSchemas entry of a relation.
func storeSchema(name string) kbase.Schema {
	return storeSchemas[slices.IndexFunc(storeSchemas, func(sc kbase.Schema) bool { return sc.Name == name })]
}

// IsStoreDir reports whether dir holds a store snapshot.
func IsStoreDir(dir string) bool { return kbase.IsSnapshot(dir) }
