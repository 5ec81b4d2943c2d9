package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
)

// The store's relations, materialized as kbase tables. Everything a
// resumed session needs survives here: the data model's sentence
// layer with its multimodal attributes and table grid (so training,
// tuple extraction AND labeling-function application all see the same
// values after a resume), the Candidates relation as mention spans,
// the index-independent Features relation (feature *names* per
// candidate, so the numeric matrix can be re-derived under any frozen
// index), the per-document FeatureCounts shards, the Labels votes,
// per-document cache statistics, and a meta table pinning the
// session's configuration.
const (
	tblDocuments = "documents"
	tblSentences = "sentences"
	tblCands     = "candidates"
	tblFeatures  = "features"
	tblCounts    = "feature_counts"
	tblLabels    = "labels"
	tblDocStats  = "doc_stats"
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

// storeFormat versions the snapshot layout.
const storeFormat = "2"

func mustSchema(name string, cols ...string) kbase.Schema {
	s, err := kbase.NewSchema(name, cols...)
	if err != nil {
		panic("core: " + err.Error())
	}
	return s
}

var storeSchemas = []kbase.Schema{
	mustSchema(tblDocuments, "pos:integer", "name", "format"),
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
	mustSchema(tblCounts, "doc", "feature", "count:integer"),
	mustSchema(tblLabels, "cand:integer", "lf:integer", "vote:integer"),
	mustSchema(tblDocStats, "doc", "cands:integer", "hits:integer", "misses:integer"),
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
// document carrying them fails to persist with a clear error.
func checkSepFree(ss ...string) error {
	for _, s := range ss {
		if strings.ContainsAny(s, wordSep+fieldSep) {
			return fmt.Errorf("core: value %q contains the reserved separator bytes \\x1f/\\x1e and cannot be persisted", s)
		}
	}
	return nil
}

// sentenceTuple flattens one sentence (and its cell linkage) into a
// sentences-relation row. It errors if any string attribute contains
// the reserved separator bytes.
func sentenceTuple(docName string, sent *datamodel.Sentence) (kbase.Tuple, error) {
	tbl, rs, re, cs, ce, header := -1, 0, 0, 0, 0, 0
	if cell := sent.Cell(); cell != nil {
		tbl = cell.Table.Position
		rs, re, cs, ce = cell.RowStart, cell.RowEnd, cell.ColStart, cell.ColEnd
		if cell.IsHeader {
			header = 1
		}
	}
	fields := []string{sent.HTMLTag, sent.PrevSibTag, sent.NextSibTag, sent.Font.Name}
	for _, list := range [][]string{sent.Words, sent.Lemmas, sent.POS, sent.NER, sent.AncestorTags, sent.AncestorClasses, sent.AncestorIDs} {
		fields = append(fields, list...)
	}
	for k, v := range sent.HTMLAttrs {
		fields = append(fields, k, v)
	}
	if err := checkSepFree(fields...); err != nil {
		return nil, fmt.Errorf("document %q sentence %d: %w", docName, sent.Position, err)
	}
	return kbase.Tuple{
		docName, sent.Position,
		joinList(sent.Words), joinList(sent.Lemmas), joinList(sent.POS), joinList(sent.NER),
		sent.HTMLTag, encodeAttrs(sent.HTMLAttrs),
		joinList(sent.AncestorTags), joinList(sent.AncestorClasses), joinList(sent.AncestorIDs),
		sent.NodePos, sent.PrevSibTag, sent.NextSibTag,
		encodeInts(sent.PageNums), encodeBoxes(sent.Boxes), encodeFont(sent.Font),
		tbl, rs, re, cs, ce, header,
	}, nil
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
// rows (sorted by position): text paragraphs for plain runs, tables
// with their cell grid for tabular runs, every sentence attribute
// restored. The rebuilt walk order must reproduce the stored sentence
// positions; that invariant is verified after Finalize.
func rebuildDoc(name, format string, rows []sentRow) (*datamodel.Document, error) {
	b := datamodel.NewBuilder(name, format)
	var curText *datamodel.Paragraph
	var made []*datamodel.Sentence
	tables := map[int]*datamodel.Table{}
	cellParas := map[int]map[[4]int]*datamodel.Paragraph{}
	for k, r := range rows {
		if r.pos != k {
			return nil, fmt.Errorf("core: document %q has non-dense sentence position %d", name, r.pos)
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
		return nil, fmt.Errorf("core: document %q rebuilt with %d sentences, want %d", name, len(got), len(made))
	}
	for k := range got {
		if got[k] != made[k] {
			return nil, fmt.Errorf("core: document %q did not rebuild in stored sentence order", name)
		}
	}
	return doc, nil
}

// newStoreEngine resolves the session's storage engine from the
// (defaulted) options. An unknown backend name panics — the Options
// field documents the valid values and the CLIs validate their flag —
// as does a failure to create the disk engine's spill directory
// (environmental, unrecoverable).
func newStoreEngine(opts Options) kbase.Engine {
	engine, err := kbase.NewEngine(opts.Backend, "")
	if err != nil {
		// Name the env var: an unset Options.Backend resolves through
		// $FONDUER_BACKEND, so a typo there surfaces here with no flag
		// in sight.
		panic("core: " + err.Error() + " (from Options.Backend; the empty value consults $FONDUER_BACKEND)")
	}
	return engine
}

// newStoreDB creates the empty relation set over the engine.
func (s *Store) newStoreDB(engine kbase.Engine) *kbase.DB {
	db := kbase.NewDBWith(engine)
	for _, schema := range storeSchemas {
		if _, err := db.Create(schema); err != nil {
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
	mods := make([]int, 0, len(s.opts.DisabledModalities))
	for _, m := range s.opts.DisabledModalities {
		mods = append(mods, int(m))
	}
	sort.Ints(mods)
	modStrs := make([]string, len(mods))
	for i, m := range mods {
		modStrs[i] = strconv.Itoa(m)
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

// writeMeta re-materializes the meta relation (delete + insert, keyed
// rows, sorted key order so the relation's row order — and with it
// the snapshot's meta.tsv bytes — is deterministic across sessions
// and backends).
func (s *Store) writeMeta() {
	tbl := s.db.Table(tblMeta)
	meta := s.configMeta()
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		key := k
		tbl.DeleteWhere(func(tp kbase.Tuple) bool { return tp[0].(string) == key })
		if _, err := tbl.Insert(kbase.Tuple{k, meta[k]}); err != nil {
			panic("core: " + err.Error())
		}
	}
}

// mirrorDoc persists one newly ingested document's shard of every
// relation (counts is its FeatureCounts shard) — the delta-only write
// path of AddDocuments. Each relation's rows are collected and go in as
// one batch.
func (s *Store) mirrorDoc(sd *storeDoc, counts map[string]int) error {
	// ins appends rows to a relation and returns where they landed.
	ins := func(table string, rows ...kbase.Tuple) (first, added int, err error) {
		tbl := s.db.Table(table)
		first = tbl.Len()
		added, err = tbl.InsertAll(rows)
		return first, added, err
	}
	name := sd.doc.Name
	if _, _, err := ins(tblDocuments, kbase.Tuple{sd.pos, name, sd.doc.Format}); err != nil {
		return err
	}
	sents := sd.doc.Sentences()
	sentRows := make([]kbase.Tuple, 0, len(sents))
	for _, sent := range sents {
		tp, err := sentenceTuple(name, sent)
		if err != nil {
			return err
		}
		sentRows = append(sentRows, tp)
	}
	var err error
	if sd.sentRowFirst, sd.sentRowCount, err = ins(tblSentences, sentRows...); err != nil {
		return err
	}

	// The features relation is most of a document's rows (a couple of
	// thousand): its tuples are cut from one cell buffer.
	nFeat := 0
	for _, c := range sd.cands {
		nFeat += len(s.names[c.ID])
	}
	featRows := make([]kbase.Tuple, 0, nFeat)
	featCells := make(kbase.Tuple, 0, 3*nFeat)
	var candRows, labelRows []kbase.Tuple
	for _, c := range sd.cands {
		id := any(int64(c.ID)) // boxed once per candidate, shared by its rows
		for a, m := range c.Mentions {
			candRows = append(candRows, kbase.Tuple{id, a, m.TypeName, name, m.Span.Sentence.Position, m.Span.Start, m.Span.End})
		}
		for seq, fn := range s.names[c.ID] {
			featCells = append(featCells, id, seq, fn)
			featRows = append(featRows, featCells[len(featCells)-3:])
		}
		for lf, v := range s.votes[c.ID] {
			if v != 0 {
				labelRows = append(labelRows, kbase.Tuple{id, lf, int(v)})
			}
		}
	}
	if sd.candRowFirst, sd.candRowCount, err = ins(tblCands, candRows...); err != nil {
		return err
	}
	if _, _, err := ins(tblFeatures, featRows...); err != nil {
		return err
	}
	if _, _, err := ins(tblLabels, labelRows...); err != nil {
		return err
	}
	feats := make([]string, 0, len(counts))
	for fn := range counts {
		feats = append(feats, fn)
	}
	sort.Strings(feats)
	countRows := make([]kbase.Tuple, len(feats))
	for i, fn := range feats {
		countRows[i] = kbase.Tuple{name, fn, counts[fn]}
	}
	if _, _, err := ins(tblCounts, countRows...); err != nil {
		return err
	}
	_, _, err = ins(tblDocStats, kbase.Tuple{name, len(sd.cands), sd.stats.Hits, sd.stats.Misses})
	return err
}

// mirrorColumn persists one Labels column's non-abstain votes.
func (s *Store) mirrorColumn(col int, votes []int8) {
	var rows []kbase.Tuple
	for i, v := range votes {
		if v != 0 {
			rows = append(rows, kbase.Tuple{i, col, int(v)})
		}
	}
	if _, err := s.db.Table(tblLabels).InsertAll(rows); err != nil {
		panic("core: " + err.Error())
	}
}

// Snapshot writes the store's relations to dir as a kbase snapshot
// (one TSV per relation plus a manifest). A snapshotted session can
// be resumed with OpenStore. Snapshot reads the entire relation set,
// so it takes the mutation guard: it must run on the writer goroutine
// (or otherwise exclusively with mutations), exactly like a write.
func (s *Store) Snapshot(dir string) error {
	s.beginMutation()
	defer s.endMutation(false)
	return kbase.SaveDB(s.db, dir)
}

// IsStoreDir reports whether dir holds a store snapshot.
func IsStoreDir(dir string) bool { return kbase.IsSnapshot(dir) }

// OpenStore resumes a snapshotted session: it restores the relation
// set from dir and rebuilds the in-memory state — documents with
// their full sentence-level attributes and table grids (so training,
// tuple extraction and labeling-function application behave exactly
// as in the live session), candidates re-linked to their spans, the
// Features and Labels relations, merged feature counts and the session
// feature index — without re-parsing or re-extracting anything. task
// must be the same task the store was built for (labeling functions
// are code and cannot be persisted; they are re-supplied here), and
// opts must agree with the persisted configuration on every knob that
// shaped the relations. Runtime knobs (Seed, Epochs, Threshold, LR,
// Workers, ...) are taken fresh from opts.
func OpenStore(dir string, task Task, opts Options) (*Store, error) {
	opts.defaults()
	db, err := kbase.LoadDBWith(dir, newStoreEngine(opts))
	if err != nil {
		return nil, err
	}
	// Any failure past this point must release the engine (the disk
	// backend holds a spill directory).
	ok := false
	defer func() {
		if !ok {
			db.Close()
		}
	}()
	s := &Store{
		task:   task,
		opts:   opts,
		byName: map[string]*storeDoc{},
		counts: map[string]int{},
		dict:   features.NewIndex(),
	}
	s.lfs = append(s.lfs, task.LFs...)
	if opts.LFs != nil {
		s.lfs = append(s.lfs[:0], opts.LFs...)
	}

	// Validate the persisted configuration against the caller's.
	for _, name := range []string{tblDocuments, tblSentences, tblCands, tblFeatures, tblCounts, tblLabels, tblDocStats, tblMeta} {
		if db.Table(name) == nil {
			return nil, fmt.Errorf("core: store snapshot is missing relation %q", name)
		}
	}
	meta := map[string]string{}
	db.Table(tblMeta).Scan(func(tp kbase.Tuple) bool {
		meta[tp[0].(string)] = tp[1].(string)
		return true
	})
	for k, want := range s.configMeta() {
		if got, ok := meta[k]; !ok || got != want {
			return nil, fmt.Errorf("core: store snapshot %s=%q does not match session %s=%q", k, meta[k], k, want)
		}
	}

	// Rebuild the corpus one document at a time, enforcing the
	// parsed-document eviction budget as we go. A first pass over the
	// sentences and candidates relations records only each document's
	// contiguous row range and candidate-ID range — no payloads are
	// decoded or retained — then every document pages in exactly its
	// own rows through rebuildDocState (the same path eviction
	// rehydration uses), so resuming a larger-than-RAM session peaks
	// at one document's rows plus the resident budget, never the
	// whole corpus.
	type docRow struct {
		pos          int
		name, format string
	}
	var docRows []docRow
	db.Table(tblDocuments).Scan(func(tp kbase.Tuple) bool {
		docRows = append(docRows, docRow{int(tp[0].(int64)), tp[1].(string), tp[2].(string)})
		return true
	})
	sort.Slice(docRows, func(i, j int) bool { return docRows[i].pos < docRows[j].pos })

	type rowRange struct {
		first, count, last int
		contig             bool
	}
	track := func(ranges map[string]*rowRange, name string, pos int) *rowRange {
		rr := ranges[name]
		if rr == nil {
			rr = &rowRange{first: pos, last: pos - 1, contig: true}
			ranges[name] = rr
		}
		if pos != rr.last+1 {
			rr.contig = false // interleaved snapshot: fall back to filter scans
		}
		rr.count++
		rr.last = pos
		return rr
	}
	sentR := map[string]*rowRange{}
	pos := 0
	db.Table(tblSentences).Scan(func(tp kbase.Tuple) bool {
		track(sentR, tp[0].(string), pos)
		pos++
		return true
	})
	candR := map[string]*rowRange{}
	idMax := map[string]int{}
	maxCand := -1
	pos = 0
	db.Table(tblCands).Scan(func(tp kbase.Tuple) bool {
		name := tp[3].(string)
		track(candR, name, pos)
		id := int(tp[0].(int64))
		if cur, ok := idMax[name]; !ok || id > cur {
			idMax[name] = id
		}
		if id > maxCand {
			maxCand = id
		}
		pos++
		return true
	})

	// rebuildDocState reads through s.db; the relations are fully
	// loaded, so it can be bound before the in-memory state exists.
	s.db = db
	numLFs, _ := strconv.Atoi(meta["num_lfs"])
	nextID := 0
	for i, dr := range docRows {
		if dr.pos != i {
			return nil, fmt.Errorf("core: documents relation has non-dense position %d at row %d", dr.pos, i)
		}
		sd := &storeDoc{
			name: dr.name, format: dr.format, pos: i,
			sentRowFirst: -1, candRowFirst: -1,
		}
		if rr := sentR[dr.name]; rr == nil {
			sd.sentRowFirst, sd.sentRowCount = 0, 0
		} else if rr.contig {
			sd.sentRowFirst, sd.sentRowCount = rr.first, rr.count
		}
		// The store assigns candidate IDs densely in document order:
		// this document's candidates are exactly [nextID, idMax];
		// buildDocCandidates (via rebuildDocState) validates density
		// and spans, so gaps, overlaps and cross-document candidates
		// all surface as errors.
		count := 0
		if rr := candR[dr.name]; rr != nil {
			if rr.contig {
				sd.candRowFirst, sd.candRowCount = rr.first, rr.count
			}
			mx := idMax[dr.name]
			if mx < nextID {
				return nil, fmt.Errorf("core: candidate %d of %q out of document order (spans documents?)", mx, dr.name)
			}
			count = mx - nextID + 1
		} else {
			sd.candRowFirst, sd.candRowCount = 0, 0
		}
		sd.candFirst, sd.candCount = nextID, count
		doc, cands, err := s.rebuildDocState(sd)
		if err != nil {
			return nil, err
		}
		sd.doc = doc
		sd.cands = cands
		for _, c := range cands {
			s.cands = append(s.cands, c)
			s.names = append(s.names, nil)
			s.votes = append(s.votes, make([]int8, numLFs))
		}
		nextID += count
		s.docs = append(s.docs, sd)
		s.byName[dr.name] = sd
		s.accountHydrated(sd)
		delete(sentR, dr.name)
		delete(candR, dr.name)
		delete(idMax, dr.name)
	}
	if nextID != maxCand+1 {
		return nil, fmt.Errorf("core: candidates relation has no rows for candidate %d", nextID)
	}
	for name := range candR {
		return nil, fmt.Errorf("core: candidates relation references unknown document %q", name)
	}

	// Features relation: per-candidate names in seq order.
	type featRow struct {
		seq  int
		name string
	}
	featRows := make(map[int][]featRow, len(s.cands))
	db.Table(tblFeatures).Scan(func(tp kbase.Tuple) bool {
		id := int(tp[0].(int64))
		featRows[id] = append(featRows[id], featRow{int(tp[1].(int64)), tp[2].(string)})
		return true
	})
	for id, rows := range featRows {
		if id < 0 || id >= len(s.cands) {
			return nil, fmt.Errorf("core: features relation references unknown candidate %d", id)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].seq < rows[b].seq })
		names := make([]string, len(rows))
		for k, r := range rows {
			names[k] = r.name
		}
		s.names[id] = names
	}

	// FeatureCounts shards, summed into the merged counts.
	var countErr error
	db.Table(tblCounts).Scan(func(tp kbase.Tuple) bool {
		if _, ok := s.byName[tp[0].(string)]; !ok {
			countErr = fmt.Errorf("core: feature_counts references unknown document %q", tp[0])
			return false
		}
		s.counts[tp[1].(string)] += int(tp[2].(int64))
		return true
	})
	if countErr != nil {
		return nil, countErr
	}

	// Labels votes.
	var labelErr error
	db.Table(tblLabels).Scan(func(tp kbase.Tuple) bool {
		id, lf := int(tp[0].(int64)), int(tp[1].(int64))
		if id < 0 || id >= len(s.cands) || lf < 0 || lf >= numLFs {
			labelErr = fmt.Errorf("core: labels relation references candidate %d / lf %d out of range", id, lf)
			return false
		}
		s.votes[id][lf] = int8(tp[2].(int64))
		return true
	})
	if labelErr != nil {
		return nil, labelErr
	}

	// Per-document cache statistics.
	db.Table(tblDocStats).Scan(func(tp kbase.Tuple) bool {
		if sd, ok := s.byName[tp[0].(string)]; ok {
			sd.stats = features.CacheStats{Hits: int(tp[2].(int64)), Misses: int(tp[3].(int64))}
		}
		return true
	})

	// Re-derive the session index from the restored relations. Admission
	// order here (first encounter in candidate order) may differ from the
	// live session's (batch-sorted), but session columns are internal:
	// every result is a function of the name sets, not the column
	// numbering.
	for _, names := range s.names {
		for _, n := range names {
			if s.counts[n] >= s.opts.MinFeatureCount {
				s.dict.ID(n)
			}
		}
	}
	ok = true
	return s, nil
}
