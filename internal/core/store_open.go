package core

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
)

// OpenStore resumes a snapshotted session: it reads the relation
// set from dir and rebuilds the in-memory state — documents with
// their full sentence-level attributes and table grids, candidates
// re-linked to their spans, the Features and Labels relations, and the
// feature counts and session feature index derived from Features —
// without re-parsing or re-extracting anything. task must be the same
// task the store was built for (labeling functions are code and cannot
// be persisted; they are re-supplied here), and opts must agree with
// the persisted configuration on every knob that shaped the relations.
// Runtime knobs (Seed, Epochs, ThresholdOverride, Workers) are
// taken fresh from opts. Meta rows the session does not write (an
// older format-3 snapshot's no_feature_cache) are not compared.
//
// The context tree above the sentences is not stored: a run of
// non-tabular sentences is rebuilt as one text block with one
// paragraph, however many the live document had. Training and the
// resumed Result read the stored features and votes, so they are
// unaffected; but an LF installed after the resume that reads the tree
// (LowestCommonAncestor, MinDistToLCA, LCADepth, Depth, Sections) can
// vote differently than it would have on the live document (ROADMAP
// item 15).
//
// A snapshot is read in the order and the types Snapshot writes it, and
// anything else is refused with an error naming the relation and the row
// or ids — checked, never re-established:
//
//   - every relation declares exactly its storeSchemas columns, and no
//     relation repeats its key; meta is checked first, with the
//     configuration it pins, so a snapshot of another format is refused
//     by its format;
//   - documents: row i has pos i, and names are distinct;
//   - candidates: rows are grouped by document, in documents order;
//     ids run 0, 1, 2, …; a candidate's arguments run 0, 1, …, all in
//     its own document, each a valid span of its sentence;
//   - features: each candidate's seq runs 0, 1, 2, …;
//   - labels: votes of -1 or +1, one per (candidate, LF);
//   - sentences: rows are grouped by document, in documents order, pos
//     runs 0, 1, 2, … within a document, and a table cell's row and
//     column spans are non-negative and not inverted.
//
// Ordering invariant: each relation's file is parsed once (candidates
// twice), a bounded batch at a time, straight into the store's
// structures — no kbase table is built — and the documents are rebuilt
// after the features and labels scans, so what the scans leave behind is
// garbage before the documents — the part of the session that stays —
// are allocated (DESIGN.md, "Why documents stay resident"). Each document
// is built once, when its sentence rows end.
func OpenStore(dir string, task Task, opts Options) (*Store, error) {
	s := NewStore(task, opts)
	if !kbase.IsSnapshot(dir) {
		return nil, fmt.Errorf("core: %s holds no store snapshot (no MANIFEST)", dir)
	}
	if err := s.resume(dir); err != nil {
		return nil, err
	}
	return s, nil
}

// cells is one relation row as resume reads it: row r of the batch its
// file is parsed into.
type cells struct {
	b *kbase.Batch
	r int
}

func (x cells) num(c int) int    { return int(x.b.Int(c, x.r)) }
func (x cells) str(c int) string { return x.b.Str(c, x.r) }

// scan streams one relation's rows from its file in dir to fn, stopping
// at fn's first error, and returns how many went by. It first refuses a
// missing relation, or one not declaring exactly its storeSchemas
// columns (rows are read by position and type); a nil fn checks just that.
func scan(dir, name string, fn func(row int, x cells) error) (int, error) {
	f, err := os.Open(filepath.Join(dir, name+".tsv"))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("core: store snapshot is missing relation %q", name)
	} else if err != nil {
		return 0, err
	}
	defer f.Close()
	tr, err := kbase.NewTSVReader(f)
	if err != nil {
		return 0, fmt.Errorf("core: %s relation: %w", name, err)
	}
	if got, want := tr.Schema(), storeSchema(name); got.Name != name || !slices.Equal(got.Columns, want.Columns) {
		return 0, fmt.Errorf("core: store snapshot's %s relation declares %s%v, want %s%v", name, got.Name, got.Columns, name, want.Columns)
	}
	for row := 0; fn != nil; {
		b, err := tr.Next()
		if err == io.EOF {
			return row, nil
		} else if err != nil {
			return row, fmt.Errorf("core: %s relation: %w", name, err)
		}
		for r := 0; r < b.Len(); r, row = r+1, row+1 {
			if err := fn(row, cells{b, r}); err != nil {
				return row, err
			}
		}
	}
	return 0, nil
}

// resume rebuilds the session from the snapshot in dir (OpenStore).
func (s *Store) resume(dir string) error {
	meta := map[string]string{}
	_, err := scan(dir, tblMeta, func(row int, x cells) error {
		if _, ok := meta[x.str(0)]; ok {
			return fmt.Errorf("core: meta relation row %d repeats key %q", row, x.str(0))
		}
		meta[x.str(0)] = x.str(1)
		return nil
	})
	if err != nil {
		return err
	}
	for k, want := range s.configMeta() {
		if got, ok := meta[k]; !ok || got != want {
			return fmt.Errorf("core: store snapshot %s=%q does not match session %s=%q", k, meta[k], k, want)
		}
	}
	for _, schema := range storeSchemas {
		if _, err := scan(dir, schema.Name, nil); err != nil {
			return err
		}
	}

	// The corpus skeleton, in position order, with each document's cache
	// statistics.
	s.rows[tblDocuments], err = scan(dir, tblDocuments, func(row int, x cells) error {
		sd := &storeDoc{
			pos: x.num(0), name: x.str(1), format: x.str(2),
			stats: features.CacheStats{Hits: x.num(3), Misses: x.num(4)},
		}
		if sd.pos != row {
			return fmt.Errorf("core: documents relation row %d has pos %d", row, sd.pos)
		}
		if s.byName[sd.name] != nil {
			return fmt.Errorf("core: documents relation row %d repeats document %q", row, sd.name)
		}
		s.docs = append(s.docs, sd)
		s.byName[sd.name] = sd
		s.docNames = append(s.docNames, sd.name)
		s.stats.Hits += sd.stats.Hits
		s.stats.Misses += sd.stats.Misses
		return nil
	})
	if err != nil {
		return err
	}

	// Candidates, first pass: the ids and their order, which is all the
	// features and labels scans need. The store assigns ids densely in
	// document order, and a candidate's mention rows follow one another.
	nCands, nextArg, lastDoc := 0, 0, 0
	s.rows[tblCands], err = scan(dir, tblCands, func(row int, x cells) error {
		id, arg, name := x.num(0), x.num(1), x.str(3)
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
	// batch except a name's first occurrence.
	s.names = make([][]uint32, nCands)
	s.rows[tblFeatures], err = scan(dir, tblFeatures, func(row int, x cells) error {
		id, seq := x.num(0), x.num(1)
		if id < 0 || id >= nCands {
			return fmt.Errorf("core: features relation row %d references unknown candidate %d", row, id)
		}
		if seq != len(s.names[id]) {
			return fmt.Errorf("core: features relation row %d has seq %d for candidate %d, want %d", row, seq, id, len(s.names[id]))
		}
		s.names[id] = append(s.names[id], uint32(s.feats.ID(x.str(2))))
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

	// Labels votes: -1 or +1, at most one per (candidate, LF).
	numLFs, _ := strconv.Atoi(meta["num_lfs"])
	s.votes = make([][]int8, nCands)
	for i := range s.votes {
		s.votes[i] = make([]int8, numLFs)
	}
	s.rows[tblLabels], err = scan(dir, tblLabels, func(_ int, x cells) error {
		id, lf, vote := x.num(0), x.num(1), x.num(2)
		switch {
		case id < 0 || id >= nCands || lf < 0 || lf >= numLFs:
			return fmt.Errorf("core: labels relation references candidate %d / lf %d out of range", id, lf)
		case vote != -1 && vote != 1:
			return fmt.Errorf("core: labels relation holds vote %d for candidate %d / lf %d, want -1 or +1", vote, id, lf)
		case s.votes[id][lf] != 0:
			return fmt.Errorf("core: labels relation holds two votes for candidate %d / lf %d", id, lf)
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
	s.rows[tblSentences], err = scan(dir, tblSentences, func(row int, x cells) error {
		name := x.str(0)
		if sd := s.byName[name]; sd == nil || sd.pos < built {
			return fmt.Errorf("core: sentences relation row %d (document %q) names no document, or is out of documents order", row, name)
		}
		if err := finish(s.byName[name].pos); err != nil {
			return err
		}
		r, err := decodeSentence(x)
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
	_, err = scan(dir, tblCands, func(row int, x cells) error {
		sd := s.byName[x.str(3)]
		if x.num(1) == 0 {
			c := &candidates.Candidate{ID: len(s.cands)}
			s.cands = append(s.cands, c)
			sd.cands = append(sd.cands, c)
		}
		c := s.cands[len(s.cands)-1]
		si, start, end := x.num(4), x.num(5), x.num(6)
		sents := sd.doc.Sentences()
		if si < 0 || si >= len(sents) {
			return fmt.Errorf("core: candidates relation row %d: candidate %d references missing sentence %d of %q", row, c.ID, si, sd.name)
		}
		if start < 0 || end > len(sents[si].Words) || start >= end {
			return fmt.Errorf("core: candidates relation row %d: candidate %d has invalid span [%d,%d) in %q", row, c.ID, start, end, sd.name)
		}
		c.Mentions = append(c.Mentions, candidates.Mention{
			TypeName: x.str(2),
			Span:     datamodel.Span{Sentence: sents[si], Start: start, End: end},
		})
		return nil
	})
	return err
}
