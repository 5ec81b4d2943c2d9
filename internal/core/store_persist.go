package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/kbase"
	"repro/internal/pool"
)

// The store's relations, materialized as kbase tables, each fact in one
// of them. Everything a resumed session needs survives here: the
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

func mustSchema(name string, key kbase.Key, cols ...string) kbase.Schema {
	s, err := kbase.NewSchema(name, cols...)
	if err == nil {
		s, err = s.WithKey(key)
	}
	if err != nil {
		// Unreachable from input or I/O: every caller passes the column
		// literals of storeSchemas, at package initialization.
		panic("core: " + err.Error())
	}
	return s
}

// Each relation declares its key (TestStoreSchemaKeys); the ascending
// ones are those mirror appends in key order.
var storeSchemas = []kbase.Schema{
	// One row per document, in ingestion order, with its featurization
	// cache statistics.
	mustSchema(tblDocuments, kbase.Key{Cols: 1, Ascending: true}, "pos:integer", "name", "format", "hits:integer", "misses:integer"),
	// One row per sentence, carrying every attribute the data model
	// records at sentence granularity — textual, structural, visual —
	// plus the containing table cell's grid coordinates (tbl = -1 for
	// non-tabular sentences), so the document DAG's leaf layer
	// restores faithfully.
	mustSchema(tblSentences, kbase.Key{Cols: 2}, "doc", "pos:integer", "words", "lemmas", "pos_tags", "ner",
		"htmltag", "attrs", "ancestor_tags", "ancestor_classes", "ancestor_ids",
		"nodepos:integer", "prevsib", "nextsib", "pages", "boxes", "font",
		"tbl:integer", "row_start:integer", "row_end:integer", "col_start:integer", "col_end:integer", "header:integer"),
	mustSchema(tblCands, kbase.Key{Cols: 2, Ascending: true}, "cand:integer", "arg:integer", "type", "doc", "sent:integer", "start:integer", "end:integer"),
	mustSchema(tblFeatures, kbase.Key{Cols: 2, Ascending: true}, "cand:integer", "seq:integer", "feature"),
	mustSchema(tblLabels, kbase.Key{Cols: 2}, "cand:integer", "lf:integer", "vote:integer"),
	mustSchema(tblMeta, kbase.Key{Cols: 1}, "key", "value"),
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

func decodeSentence(tp kbase.Tuple) (sentRow, error) {
	r := sentRow{
		pos:     int(tp[1].(int64)),
		words:   splitList(tp[2].(string)),
		lemmas:  splitList(tp[3].(string)),
		posTags: splitList(tp[4].(string)),
		ner:     splitList(tp[5].(string)),
		htmlTag: tp[6].(string), attrs: decodeAttrs(tp[7].(string)),
		ancTags: splitList(tp[8].(string)), ancClasses: splitList(tp[9].(string)), ancIDs: splitList(tp[10].(string)),
		nodePos: int(tp[11].(int64)), prevSib: tp[12].(string), nextSib: tp[13].(string),
		tbl: int(tp[17].(int64)), rowStart: int(tp[18].(int64)), rowEnd: int(tp[19].(int64)),
		colStart: int(tp[20].(int64)), colEnd: int(tp[21].(int64)), header: tp[22].(int64) == 1,
	}
	var err error
	if r.pages, err = decodeInts(tp[14].(string)); err != nil {
		return r, err
	}
	if r.boxes, err = decodeBoxes(tp[15].(string)); err != nil {
		return r, err
	}
	if r.font, err = decodeFont(tp[16].(string)); err != nil {
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

// newStoreEngine resolves the session's storage engine from the
// (defaulted) options. It fails on an unknown backend name (the Options
// field documents the valid values and the CLIs validate their flag)
// and when the disk engine's spill directory cannot be created.
func newStoreEngine(opts Options) (kbase.Engine, error) {
	engine, err := kbase.NewEngine(opts.Backend, "")
	if err != nil {
		// Name the env var: an unset Options.Backend resolves through
		// $FONDUER_BACKEND, so a typo there surfaces here with no flag
		// in sight.
		return nil, fmt.Errorf("core: %w (from Options.Backend; the empty value consults $FONDUER_BACKEND)", err)
	}
	return engine, nil
}

// newStoreDB creates the empty relation set over the engine.
func (s *Store) newStoreDB(engine kbase.Engine) *kbase.DB {
	db := kbase.NewDBWith(engine)
	for _, schema := range storeSchemas {
		if _, err := db.Create(schema); err != nil {
			// Unreachable from input or I/O: the schemas are the literals
			// above with distinct names, db is new, and no engine touches
			// the file system before a table's first sealed page.
			panic("core: " + err.Error())
		}
	}
	return db
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

// writeMeta rewrites the meta relation whole, in sorted key order, so its
// row order — and with it the snapshot's meta.tsv bytes — is
// deterministic across sessions and backends.
func (s *Store) writeMeta() error {
	tbl, meta := s.db.Table(tblMeta), s.configMeta()
	rows := make([]kbase.Tuple, 0, len(meta))
	for k, v := range meta {
		rows = append(rows, kbase.Tuple{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].(string) < rows[j][0].(string) })
	tbl.DeleteWhere(func(kbase.Tuple) bool { return true })
	_, err := tbl.InsertAll(rows)
	return err
}

// mirror persists the shards of newly ingested documents — the
// delta-only write path of AddDocuments, run past its commit point:
// delta[k] takes position firstPos+k, perDoc[k] are its candidates (IDs
// assigned), feats[k] its Featurize output, and votes holds the Labels
// rows of all of them in candidate order. Each relation gets one batch,
// its rows in document order, and the relations — each table owns its
// backend, key check, planner and segment — are built and inserted on
// up to workers goroutines. The rows are a pure function of the
// arguments (the documents have passed checkPersistable), so the only
// error is an engine's: the first in relation order, whatever the
// schedule. It returns how many rows went in.
func (s *Store) mirror(firstPos int, delta []*datamodel.Document, perDoc [][]*candidates.Candidate, feats []docFeatures, votes [][]int8, workers int) (int, error) {
	nFeat := 0
	for _, df := range feats {
		for _, names := range df.names {
			nFeat += len(names)
		}
	}
	relations := []struct {
		table string
		rows  int // a size hint
		fill  func(b *kbase.Batch)
	}{
		{tblDocuments, len(delta), func(b *kbase.Batch) {
			for k, d := range delta {
				b.AppendInt(0, int64(firstPos+k))
				b.AppendString(1, d.Name)
				b.AppendString(2, d.Format)
				b.AppendInt(3, int64(feats[k].stats.Hits))
				b.AppendInt(4, int64(feats[k].stats.Misses))
			}
		}},
		{tblSentences, 0, func(b *kbase.Batch) {
			for _, d := range delta {
				for _, sent := range d.Sentences() {
					appendSentence(b, d.Name, sent)
				}
			}
		}},
		{tblCands, 2 * len(votes), func(b *kbase.Batch) {
			for k, d := range delta {
				for _, c := range perDoc[k] {
					for a, m := range c.Mentions {
						b.AppendInt(0, int64(c.ID))
						b.AppendInt(1, int64(a))
						b.AppendString(2, m.TypeName)
						b.AppendString(3, d.Name)
						b.AppendInt(4, int64(m.Span.Sentence.Position))
						b.AppendInt(5, int64(m.Span.Start))
						b.AppendInt(6, int64(m.Span.End))
					}
				}
			}
		}},
		{tblFeatures, nFeat, func(b *kbase.Batch) {
			for k := range delta {
				for i, c := range perDoc[k] {
					for seq, fn := range feats[k].names[i] {
						b.AppendInt(0, int64(c.ID))
						b.AppendInt(1, int64(seq))
						b.AppendString(2, fn)
					}
				}
			}
		}},
		{tblLabels, len(votes), func(b *kbase.Batch) {
			i := 0
			for k := range delta {
				for _, c := range perDoc[k] {
					for lf, v := range votes[i] {
						if v != 0 {
							b.AppendInt(0, int64(c.ID))
							b.AppendInt(1, int64(lf))
							b.AppendInt(2, int64(v))
						}
					}
					i++
				}
			}
		}},
	}
	added, errs := make([]int, len(relations)), make([]error, len(relations))
	pool.Run(len(relations), workers, func(i int) {
		tbl := s.db.Table(relations[i].table)
		b := kbase.NewBatch(tbl.Schema(), relations[i].rows)
		relations[i].fill(b)
		added[i], errs[i] = tbl.InsertBatch(b)
	})
	rows := 0
	for i, err := range errs {
		if err != nil {
			return rows, err
		}
		rows += added[i]
	}
	return rows, nil
}

// mirrorColumn persists one Labels column's non-abstain votes and the
// meta relation's labeling-function list — the I/O half of AddLF and
// EditLF. An error fails the store: the session already carries the
// column.
func (s *Store) mirrorColumn(col int, votes []int8) error {
	tbl := s.db.Table(tblLabels)
	b := kbase.NewBatch(tbl.Schema(), len(votes))
	for i, v := range votes {
		if v != 0 {
			b.AppendInt(0, int64(i))
			b.AppendInt(1, int64(col))
			b.AppendInt(2, int64(v))
		}
	}
	if _, err := tbl.InsertBatch(b); err != nil {
		return s.fail(err)
	}
	if err := s.writeMeta(); err != nil {
		return s.fail(err)
	}
	return nil
}

// Snapshot writes the store's relations to dir as a kbase snapshot
// (one TSV per relation plus a manifest). A snapshotted session can
// be resumed with OpenStore. Snapshot reads the entire relation set,
// so it takes the mutation guard: it must run on the writer goroutine
// (or otherwise exclusively with mutations), exactly like a write. A
// failed store refuses before dir is touched: its relations are not a
// session, and SaveDB would swap them in for the last good snapshot.
func (s *Store) Snapshot(dir string) error {
	if err := s.beginMutation(); err != nil {
		return err
	}
	defer s.endMutation(false)
	return kbase.SaveDB(s.db, dir)
}

// IsStoreDir reports whether dir holds a store snapshot.
func IsStoreDir(dir string) bool { return kbase.IsSnapshot(dir) }
