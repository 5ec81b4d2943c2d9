package core

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
)

// OpenStore resumes a snapshotted session: it restores the relation
// set from dir and rebuilds the in-memory state — documents with
// their full sentence-level attributes and table grids (so training,
// tuple extraction and labeling-function application behave exactly
// as in the live session), candidates re-linked to their spans, the
// Features and Labels relations, and the feature counts and session
// feature index derived from Features — without re-parsing or
// re-extracting anything. task must be the same task the store was
// built for (labeling functions are code and cannot be persisted; they
// are re-supplied here), and opts must agree with the persisted
// configuration on every knob that shaped the relations. Runtime knobs
// (Seed, Epochs, Threshold, LR, Workers, ...) are taken fresh from opts.
//
// Ordering invariant: the parsed documents are rebuilt last, after the
// features and labels relations have been scanned, so what the
// load and the scans leave behind (parsed row chunks, decoded pages) is
// garbage before the documents — the part of the session that stays —
// are allocated (DESIGN.md, "Why documents stay resident"). Every
// document is built exactly once here and nothing is read back from the
// relations afterwards (TestOpenStoreViewReadsNoPages).
func OpenStore(dir string, task Task, opts Options) (*Store, error) {
	opts.defaults()
	engine, err := newStoreEngine(opts)
	if err != nil {
		return nil, err
	}
	db, err := kbase.LoadDBWith(dir, engine)
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
		feats:  features.NewIndex(),
		dict:   features.NewIndex(),
		db:     db,
	}
	s.lfs = append(s.lfs, task.LFs...)
	if opts.LFs != nil {
		s.lfs = append(s.lfs[:0], opts.LFs...)
	}

	// Validate the persisted configuration against the caller's.
	for _, schema := range storeSchemas {
		if db.Table(schema.Name) == nil {
			return nil, fmt.Errorf("core: store snapshot is missing relation %q", schema.Name)
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

	// The documents relation gives the corpus skeleton in position order,
	// with each document's cache statistics.
	db.Table(tblDocuments).Scan(func(tp kbase.Tuple) bool {
		s.docs = append(s.docs, &storeDoc{
			pos: int(tp[0].(int64)), name: tp[1].(string), format: tp[2].(string),
			stats: features.CacheStats{Hits: int(tp[3].(int64)), Misses: int(tp[4].(int64))},
		})
		return true
	})
	sort.Slice(s.docs, func(i, j int) bool { return s.docs[i].pos < s.docs[j].pos })
	for i, sd := range s.docs {
		if sd.pos != i {
			return nil, fmt.Errorf("core: documents relation has non-dense position %d at row %d", sd.pos, i)
		}
		s.byName[sd.name] = sd
	}

	// One pass over the sentences and candidates relations records only
	// where each document's rows sit and its highest candidate ID — no
	// payload is decoded or retained — so that rebuilding, below, pages
	// in one document's rows at a time.
	sentR, candR := map[string]*rowRange{}, map[string]*rowRange{}
	pos := 0
	db.Table(tblSentences).Scan(func(tp kbase.Tuple) bool {
		trackRow(sentR, tp[0].(string), pos)
		pos++
		return true
	})
	idMax := map[string]int{}
	pos = 0
	db.Table(tblCands).Scan(func(tp kbase.Tuple) bool {
		name := tp[3].(string)
		trackRow(candR, name, pos)
		if id := int(tp[0].(int64)); id > idMax[name] {
			idMax[name] = id
		}
		pos++
		return true
	})
	for name := range candR {
		if _, ok := s.byName[name]; !ok {
			return nil, fmt.Errorf("core: candidates relation references unknown document %q", name)
		}
	}
	// The store assigns candidate IDs densely in document order, so
	// document i's candidates are exactly [candFirst[i], candFirst[i+1]);
	// buildDocCandidates validates density and spans, so gaps, overlaps
	// and cross-document candidates all surface as errors.
	candFirst := make([]int, len(s.docs)+1)
	for i, sd := range s.docs {
		candFirst[i+1] = candFirst[i]
		if candR[sd.name] != nil {
			if idMax[sd.name] < candFirst[i] {
				return nil, fmt.Errorf("core: candidate %d of %q out of document order (spans documents?)", idMax[sd.name], sd.name)
			}
			candFirst[i+1] = idMax[sd.name] + 1
		}
	}
	nCands := candFirst[len(s.docs)]

	// Features relation: per-candidate feature ids in seq order, interned
	// while the relation streams past — no row and no name outlives its
	// callback except a name's first occurrence. The store wrote the rows
	// in (cand, seq) order, so a row almost always extends its candidate's
	// list; seqs remembers the seq of every row of just the candidates for
	// which one did not (a snapshot shuffled by hand), and those are
	// sorted afterwards.
	s.names = make([][]uint32, nCands)
	seqs := map[int][]int{}
	var featErr error
	db.Table(tblFeatures).Scan(func(tp kbase.Tuple) bool {
		id, seq := int(tp[0].(int64)), int(tp[1].(int64))
		if id < 0 || id >= nCands {
			featErr = fmt.Errorf("core: features relation references unknown candidate %d", id)
			return false
		}
		if sq, unordered := seqs[id]; unordered {
			seqs[id] = append(sq, seq)
		} else if seq != len(s.names[id]) {
			sq = make([]int, len(s.names[id]), len(s.names[id])+1)
			for k := range sq {
				sq[k] = k
			}
			seqs[id] = append(sq, seq)
		}
		s.names[id] = append(s.names[id], uint32(s.feats.ID(tp[2].(string))))
		return true
	})
	if featErr != nil {
		return nil, featErr
	}
	for id, sq := range seqs {
		sort.Sort(bySeq{sq, s.names[id]})
	}
	// The counts and the session index, derived from the Features rows as
	// AddDocuments derives them, with the whole corpus as one batch: the
	// admission order (sorted names) may differ from the live session's
	// (sorted per batch), but session columns are internal — every result
	// is a function of the name sets, not the column numbering.
	s.countFeatures(s.names)

	// Labels votes: at most one per (candidate, LF), and never an abstain
	// (the store writes only votes of -1 or +1).
	numLFs, _ := strconv.Atoi(meta["num_lfs"])
	s.votes = make([][]int8, nCands)
	for i := range s.votes {
		s.votes[i] = make([]int8, numLFs)
	}
	var labelErr error
	db.Table(tblLabels).Scan(func(tp kbase.Tuple) bool {
		id, lf, vote := int(tp[0].(int64)), int(tp[1].(int64)), tp[2].(int64)
		switch {
		case id < 0 || id >= nCands || lf < 0 || lf >= numLFs:
			labelErr = fmt.Errorf("core: labels relation references candidate %d / lf %d out of range", id, lf)
		case vote != -1 && vote != 1:
			labelErr = fmt.Errorf("core: labels relation holds vote %d for candidate %d / lf %d, want -1 or +1", vote, id, lf)
		case s.votes[id][lf] != 0:
			labelErr = fmt.Errorf("core: labels relation holds two votes for candidate %d / lf %d", id, lf)
		default:
			s.votes[id][lf] = int8(vote)
			return true
		}
		return false
	})
	if labelErr != nil {
		return nil, labelErr
	}

	// Documents last (the ordering invariant above), one at a time.
	s.cands = make([]*candidates.Candidate, 0, nCands)
	for i, sd := range s.docs {
		if err := s.rebuildDocState(sd, sentR[sd.name], candR[sd.name], candFirst[i], candFirst[i+1]-candFirst[i]); err != nil {
			return nil, err
		}
		s.cands = append(s.cands, sd.cands...)
	}
	ok = true
	return s, nil
}

// bySeq sorts one candidate's feature ids by their rows' seq values.
type bySeq struct {
	seq []int
	ids []uint32
}

func (b bySeq) Len() int           { return len(b.seq) }
func (b bySeq) Less(i, j int) bool { return b.seq[i] < b.seq[j] }
func (b bySeq) Swap(i, j int) {
	b.seq[i], b.seq[j] = b.seq[j], b.seq[i]
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
}

// rowRange is where one document's rows sit in a relation whose rows
// are appended contiguously per document: [first, first+count) when
// contig; a snapshot whose rows were interleaved by hand is not.
type rowRange struct {
	first, count int
	contig       bool
}

// trackRow records that the relation's row at pos belongs to name.
func trackRow(ranges map[string]*rowRange, name string, pos int) {
	rr := ranges[name]
	if rr == nil {
		rr = &rowRange{first: pos, contig: true}
		ranges[name] = rr
	}
	if pos != rr.first+rr.count {
		rr.contig = false
	}
	rr.count++
}

// docRelationRows fetches one document's rows from a relation: exactly
// the page range when its rows are contiguous — O(count) instead of
// O(relation) — and a filter scan on the doc column when a shuffled
// snapshot interleaved them. A nil range means the document has none.
func (s *Store) docRelationRows(table string, rr *rowRange, docCol int, name string) []kbase.Tuple {
	if rr == nil {
		return nil
	}
	tbl := s.db.Table(table)
	if rr.contig {
		return tbl.Page(rr.first, rr.count)
	}
	// Push the doc-name filter into storage: on the paged backends the
	// scan then skips pages whose zone maps exclude the name instead of
	// decoding the whole relation.
	var out []kbase.Tuple
	tbl.ScanWhere([]kbase.Pred{{Col: docCol, Want: name}}, func(tp kbase.Tuple) bool {
		out = append(out, tp.Clone())
		return true
	})
	return out
}

// rebuildDocState rebuilds one document and its candidates — IDs
// [candFirst, candFirst+candCount) — from its rows of the sentences
// and candidates relations.
func (s *Store) rebuildDocState(sd *storeDoc, sentR, candR *rowRange, candFirst, candCount int) error {
	var rows []sentRow
	for _, tp := range s.docRelationRows(tblSentences, sentR, 0, sd.name) {
		r, err := decodeSentence(tp)
		if err != nil {
			return fmt.Errorf("core: rebuilding document %q: %w", sd.name, err)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].pos < rows[b].pos })
	doc, err := rebuildDoc(sd.name, sd.format, rows)
	if err != nil {
		return err
	}
	var mrows []candRow
	for _, tp := range s.docRelationRows(tblCands, candR, 3, sd.name) {
		mrows = append(mrows, decodeCandRow(tp))
	}
	cands, err := buildDocCandidates(sd.name, candFirst, candCount, mrows, doc)
	if err != nil {
		return err
	}
	sd.doc, sd.cands = doc, cands
	return nil
}

// candRow is one decoded candidates-relation row (a single mention).
type candRow struct {
	id, arg, sent, start, end int
	typ                       string
}

// decodeCandRow decodes one candidates-relation tuple.
func decodeCandRow(tp kbase.Tuple) candRow {
	return candRow{
		id: int(tp[0].(int64)), arg: int(tp[1].(int64)), typ: tp[2].(string),
		sent: int(tp[4].(int64)), start: int(tp[5].(int64)), end: int(tp[6].(int64)),
	}
}

// buildDocCandidates reconstructs one document's candidate objects
// from its mention rows: candidate IDs must be exactly the contiguous
// range [first, first+count) the store assigned at ingest, arguments
// dense, and spans valid against the rebuilt document's sentences.
func buildDocCandidates(name string, first, count int, rows []candRow, doc *datamodel.Document) ([]*candidates.Candidate, error) {
	byID := map[int][]candRow{}
	for _, r := range rows {
		byID[r.id] = append(byID[r.id], r)
	}
	if len(byID) != count {
		return nil, fmt.Errorf("core: document %q has candidate rows for %d candidates, want %d", name, len(byID), count)
	}
	sents := doc.Sentences()
	out := make([]*candidates.Candidate, 0, count)
	for id := first; id < first+count; id++ {
		mrows, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("core: candidates relation has no rows for candidate %d of %q", id, name)
		}
		sort.Slice(mrows, func(a, b int) bool { return mrows[a].arg < mrows[b].arg })
		c := &candidates.Candidate{ID: id}
		for a, r := range mrows {
			if r.arg != a {
				return nil, fmt.Errorf("core: candidate %d has non-dense argument %d", id, r.arg)
			}
			if r.sent < 0 || r.sent >= len(sents) {
				return nil, fmt.Errorf("core: candidate %d references missing sentence %d of %q", id, r.sent, name)
			}
			sent := sents[r.sent]
			if r.start < 0 || r.end > len(sent.Words) || r.start >= r.end {
				return nil, fmt.Errorf("core: candidate %d has invalid span [%d,%d) in %q", id, r.start, r.end, name)
			}
			c.Mentions = append(c.Mentions, candidates.Mention{
				TypeName: r.typ,
				Span:     datamodel.Span{Sentence: sent, Start: r.start, End: r.end},
			})
		}
		out = append(out, c)
	}
	return out, nil
}
