package core

import (
	"errors"
	"fmt"
	"slices"
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
// A snapshot is read in the order and the types Snapshot writes it, and
// anything else is refused with an error naming the relation and the row
// or ids — checked, never re-established:
//
//   - every relation loads into its storeSchemas key — no key repeats,
//     the ascending ones ascend — and declares exactly its columns; meta
//     is checked first, with the configuration it pins, so a snapshot of
//     another format is refused by its format;
//   - documents: row i has pos i, and names are distinct;
//   - candidates: rows are grouped by document, in documents order;
//     ids run 0, 1, 2, …; a candidate's arguments run 0, 1, …, all in
//     its own document, each a valid span of its sentence;
//   - features: each candidate's seq runs 0, 1, 2, …;
//   - labels: votes of -1 or +1;
//   - sentences: rows are grouped by document, in documents order, pos
//     runs 0, 1, 2, … within a document, and a table cell's row and
//     column spans are non-negative and not inverted.
//
// Ordering invariant: each relation is read once (candidates twice), and
// the documents are rebuilt after the features and labels scans, so what
// the load and the scans leave behind is garbage before the documents —
// the part of the session that stays — are allocated (DESIGN.md, "Why
// documents stay resident"). Each document is built once, when its
// sentence rows end; nothing is read back afterwards
// (TestOpenStoreViewReadsNoPages).
func OpenStore(dir string, task Task, opts Options) (*Store, error) {
	s := newStore(task, opts)
	engine, err := newStoreEngine(s.opts)
	if err != nil {
		return nil, err
	}
	if s.db, err = kbase.LoadDBWith(dir, engine, storeSchemas...); err != nil {
		if ke := (*kbase.KeyError)(nil); errors.As(err, &ke) && ke.Table == tblLabels {
			err = fmt.Errorf("core: labels relation holds two votes for candidate %v / lf %v", ke.Key[0], ke.Key[1])
		} else if errors.As(err, &ke) {
			err = fmt.Errorf("core: %s relation: %w", ke.Table, err)
		}
		return nil, err
	}
	if err := s.resume(); err != nil {
		s.db.Close() // the disk engine holds a spill directory
		return nil, err
	}
	return s, nil
}

// scan streams one relation in row order, stopping at fn's first error.
func (s *Store) scan(table string, fn func(row int, tp kbase.Tuple) error) (err error) {
	row := 0
	s.db.Table(table).Scan(func(tp kbase.Tuple) bool {
		err = fn(row, tp)
		row++
		return err == nil
	})
	return err
}

// checkColumns refuses a relation that is missing or does not declare
// exactly its storeSchemas columns: every row is read by position and
// type.
func (s *Store) checkColumns(name string) error {
	want := storeSchemas[slices.IndexFunc(storeSchemas, func(sc kbase.Schema) bool { return sc.Name == name })]
	tbl := s.db.Table(name)
	if tbl == nil {
		return fmt.Errorf("core: store snapshot is missing relation %q", name)
	}
	if got := tbl.Schema().Columns; !slices.Equal(got, want.Columns) {
		return fmt.Errorf("core: store snapshot's %s relation declares columns %v, want %v", name, got, want.Columns)
	}
	return nil
}

// resume rebuilds the session from the loaded relations (OpenStore).
func (s *Store) resume() error {
	if err := s.checkColumns(tblMeta); err != nil {
		return err
	}
	meta := map[string]string{}
	s.scan(tblMeta, func(_ int, tp kbase.Tuple) error {
		meta[tp[0].(string)] = tp[1].(string)
		return nil
	})
	for k, want := range s.configMeta() {
		if got, ok := meta[k]; !ok || got != want {
			return fmt.Errorf("core: store snapshot %s=%q does not match session %s=%q", k, meta[k], k, want)
		}
	}
	for _, schema := range storeSchemas {
		if err := s.checkColumns(schema.Name); err != nil {
			return err
		}
	}

	// The corpus skeleton, in position order, with each document's cache
	// statistics.
	err := s.scan(tblDocuments, func(row int, tp kbase.Tuple) error {
		sd := &storeDoc{
			pos: int(tp[0].(int64)), name: tp[1].(string), format: tp[2].(string),
			stats: features.CacheStats{Hits: int(tp[3].(int64)), Misses: int(tp[4].(int64))},
		}
		if sd.pos != row {
			return fmt.Errorf("core: documents relation row %d has pos %d", row, sd.pos)
		}
		if s.byName[sd.name] != nil {
			return fmt.Errorf("core: documents relation row %d repeats document %q", row, sd.name)
		}
		s.docs = append(s.docs, sd)
		s.byName[sd.name] = sd
		return nil
	})
	if err != nil {
		return err
	}

	// Candidates, first pass: the ids and their order, which is all the
	// features and labels scans need. The store assigns ids densely in
	// document order, and a candidate's mention rows follow one another.
	nCands, nextArg, lastDoc := 0, 0, 0
	err = s.scan(tblCands, func(row int, tp kbase.Tuple) error {
		id, arg, name := int(tp[0].(int64)), int(tp[1].(int64)), tp[3].(string)
		sd := s.byName[name]
		switch {
		case sd == nil:
			return fmt.Errorf("core: candidates relation row %d references unknown document %q", row, name)
		case arg == 0 && id == nCands && sd.pos >= lastDoc:
			nCands++
		case arg != 0 && arg == nextArg && id == nCands-1 && sd.pos == lastDoc:
		default:
			return fmt.Errorf("core: candidates relation row %d (candidate %d, argument %d, document %q) is out of order: ids run 0, 1, 2, … in documents order, each candidate's arguments 0, 1, … in its own document",
				row, id, arg, name)
		}
		nextArg, lastDoc = arg+1, sd.pos
		return nil
	})
	if err != nil {
		return err
	}

	// Features relation: per-candidate feature ids in seq order, interned
	// while the relation streams past — no row and no name outlives its
	// callback except a name's first occurrence.
	s.names = make([][]uint32, nCands)
	err = s.scan(tblFeatures, func(row int, tp kbase.Tuple) error {
		id, seq := int(tp[0].(int64)), int(tp[1].(int64))
		if id < 0 || id >= nCands {
			return fmt.Errorf("core: features relation row %d references unknown candidate %d", row, id)
		}
		if seq != len(s.names[id]) {
			return fmt.Errorf("core: features relation row %d has seq %d for candidate %d, want %d", row, seq, id, len(s.names[id]))
		}
		s.names[id] = append(s.names[id], uint32(s.feats.ID(tp[2].(string))))
		return nil
	})
	if err != nil {
		return err
	}
	// The counts and the session index, derived from the Features rows as
	// AddDocuments derives them, with the whole corpus as one batch: the
	// admission order (sorted names) may differ from the live session's
	// (sorted per batch), but session columns are internal — every result
	// is a function of the name sets, not the column numbering.
	s.countFeatures(s.names)

	// Labels votes: -1 or +1, one per (candidate, LF) by the key.
	numLFs, _ := strconv.Atoi(meta["num_lfs"])
	s.votes = make([][]int8, nCands)
	for i := range s.votes {
		s.votes[i] = make([]int8, numLFs)
	}
	err = s.scan(tblLabels, func(_ int, tp kbase.Tuple) error {
		id, lf, vote := int(tp[0].(int64)), int(tp[1].(int64)), tp[2].(int64)
		switch {
		case id < 0 || id >= nCands || lf < 0 || lf >= numLFs:
			return fmt.Errorf("core: labels relation references candidate %d / lf %d out of range", id, lf)
		case vote != -1 && vote != 1:
			return fmt.Errorf("core: labels relation holds vote %d for candidate %d / lf %d, want -1 or +1", vote, id, lf)
		}
		s.votes[id][lf] = int8(vote)
		return nil
	})
	if err != nil {
		return err
	}

	// Documents last (the ordering invariant above): each is rebuilt when
	// its sentence rows end, and one with no rows is rebuilt empty.
	built := 0 // documents before this position are rebuilt
	var rows []sentRow
	finish := func(end int) error {
		for ; built < end; built++ {
			sd := s.docs[built]
			doc, err := rebuildDoc(sd.name, sd.format, rows)
			if err != nil {
				return err
			}
			sd.doc = doc
			rows = rows[:0] // the rows were built's; those after it have none
		}
		return nil
	}
	err = s.scan(tblSentences, func(row int, tp kbase.Tuple) error {
		name := tp[0].(string)
		if sd := s.byName[name]; sd == nil || sd.pos < built {
			return fmt.Errorf("core: sentences relation row %d (document %q) names no document, or is out of documents order", row, name)
		}
		if err := finish(s.byName[name].pos); err != nil {
			return err
		}
		r, err := decodeSentence(tp)
		if err != nil {
			return fmt.Errorf("core: sentences relation row %d of document %q: %w", row, name, err)
		}
		rows = append(rows, r)
		return nil
	})
	if err == nil {
		err = finish(len(s.docs))
	}
	if err != nil {
		return err
	}

	// Candidates, second pass: link each mention to its rebuilt sentence.
	// The first pass checked the order, so a row with argument 0 starts
	// candidate len(s.cands).
	s.cands = make([]*candidates.Candidate, 0, nCands)
	return s.scan(tblCands, func(row int, tp kbase.Tuple) error {
		sd := s.byName[tp[3].(string)]
		if tp[1].(int64) == 0 {
			c := &candidates.Candidate{ID: len(s.cands)}
			s.cands = append(s.cands, c)
			sd.cands = append(sd.cands, c)
		}
		c := s.cands[len(s.cands)-1]
		si, start, end := int(tp[4].(int64)), int(tp[5].(int64)), int(tp[6].(int64))
		sents := sd.doc.Sentences()
		if si < 0 || si >= len(sents) {
			return fmt.Errorf("core: candidates relation row %d: candidate %d references missing sentence %d of %q", row, c.ID, si, sd.name)
		}
		if start < 0 || end > len(sents[si].Words) || start >= end {
			return fmt.Errorf("core: candidates relation row %d: candidate %d has invalid span [%d,%d) in %q", row, c.ID, start, end, sd.name)
		}
		c.Mentions = append(c.Mentions, candidates.Mention{
			TypeName: tp[2].(string),
			Span:     datamodel.Span{Sentence: sents[si], Start: start, End: end},
		})
		return nil
	})
}
