package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Store is the persistent, incrementally maintained state of one
// extraction session — the role PostgreSQL plays in the paper's
// implementation. It materializes the pipeline's intermediate
// relations (per-document Candidates, the index-independent Features
// relation of per-candidate feature names, and the Labels votes) once,
// in its own structures, each fact in one relation; a snapshot streams
// them from there (Snapshot), and the feature counts are summed from
// Features, never persisted. So:
//
//   - documents can be ingested incrementally: AddDocuments extracts,
//     featurizes and labels only the new documents and adds their
//     features to the counts; the numeric feature rows are derived per
//     run from the name rows, under that run's frozen index;
//   - labeling functions can be iterated without re-running extraction
//     or featurization (the DevSession loop is a thin wrapper);
//   - the whole session can be snapshotted to disk and resumed later
//     (Snapshot / OpenStore), skipping parsing and extraction
//     entirely.
//
// The central invariant, checked by the equivalence tests, is
// confluence modulo the Result: ingesting a corpus in any batch
// order, at any worker count, then running a split through RunSplit
// yields a Result bit-identical to a single from-scratch Run over the
// union corpus.
//
// A Store is bound at creation to the options that shape its
// featurization and supervision (variant, disabled modalities, cache
// switch, scope, throttlers, minimum feature count, labeling
// functions). Runs that vary those knobs need their own store —
// exactly as the paper's ablations re-populate their database.
//
// Store methods are not safe for concurrent use; internally each
// stage fans out over the PR-1 worker pool (Options.Workers). The
// concurrency contract, relied on by the serving layer
// (internal/serve), is writer-goroutine-only mutation: all mutating
// calls (AddDocuments, AddLF, EditLF, and Snapshot, which reads the
// whole relation set) must come from one goroutine — or be externally
// serialized — while concurrent readers consume immutable StoreViews
// published by View. A cheap atomic guard turns violations into an
// immediate panic instead of silent corruption.
//
// Failure semantics: a mutation is validate → commit. What the input can
// cause (ErrDocumentExists, ErrInvalidDocument) is found before the
// store changes, and the call leaves it exactly as it was; past the
// commit point nothing can fail, as a mutation does no I/O.
type Store struct {
	task Task
	opts Options
	lfs  []labeling.LF

	// mutating is the misuse detector behind the writer-goroutine-only
	// contract; epoch counts completed mutations, stamping each
	// published StoreView.
	mutating atomic.Bool
	epoch    uint64

	docs   []*storeDoc
	byName map[string]*storeDoc

	// Global candidate-indexed relations; candidate IDs are assigned
	// densely in ingestion order, so index i is candidate ID i.
	cands []*candidates.Candidate
	names [][]uint32 // Features relation: distinct features as ids into feats, first-occurrence order
	votes [][]int8   // Labels relation: one clamped vote per LF

	// feats is the session feature dictionary names is written in
	// (internRows): every name seen, in first-seen order. A name is
	// interned on the writer goroutine past AddDocuments' commit point
	// (or while OpenStore scans), never in a featurize worker and never
	// for a refused batch; views share feats.NamesView().
	feats *features.Index

	// counts is, per dictionary id, how many candidates carry the name:
	// derived from names (countFeatures), on ingest and on resume. Counts
	// only ever grow, so index evolution under incremental ingestion is
	// append-only.
	counts []int

	// dict lists the features at or above the MinFeatureCount floor in
	// admission order (what /features serves and the drift trigger
	// counts); every other name of feats is still below the floor.
	dict *features.Index

	// rows counts each relation's rows, as stream writes them: kept by
	// AddDocuments, AddLF and EditLF, and read by View (TableRows).
	rows map[string]int

	// ingestSpans is the stage timing of the most recent AddDocuments
	// call (observability only — cleared and rebuilt per call). Like
	// everything else on the store it is writer-goroutine state; the
	// serving layer drains it with TakeIngestSpans right after the
	// ingest, on the same goroutine.
	ingestSpans []obs.Span
}

// storeDoc is one ingested document's shard of the store relations:
// the parsed document, its candidates in global-ID order (candidate
// IDs are dense, so they are one contiguous range of Store.cands) and
// its featurization cache statistics. Documents stay resident for the
// life of the store (DESIGN.md, "Why documents stay resident").
type storeDoc struct {
	doc    *datamodel.Document
	name   string
	format string
	pos    int
	cands  []*candidates.Candidate
	stats  features.CacheStats
}

// NewStore creates an empty session store for a task. opts fixes the
// session's featurization and supervision configuration (see the type
// comment); opts.LFs, when non-nil, overrides task.LFs as the
// session's labeling functions (an empty non-nil slice starts the
// session with none, the DevSession entry state). OpenStore starts
// from the same empty store.
func NewStore(task Task, opts Options) *Store {
	opts.defaults()
	s := &Store{
		task:   task,
		opts:   opts,
		byName: map[string]*storeDoc{},
		feats:  features.NewIndex(),
		dict:   features.NewIndex(),
		rows:   map[string]int{},
	}
	s.lfs = append(s.lfs, task.LFs...)
	if opts.LFs != nil {
		s.lfs = append(s.lfs[:0], opts.LFs...)
	}
	for _, schema := range storeSchemas {
		s.rows[schema.Name] = 0
	}
	s.rows[tblMeta] = len(s.configMeta())
	return s
}

// Task returns the store's task.
func (s *Store) Task() Task { return s.task }

// Candidates returns the ingested candidates in global ID order.
func (s *Store) Candidates() []*candidates.Candidate { return s.cands }

// NumCandidates returns the number of ingested candidates.
func (s *Store) NumCandidates() int { return len(s.cands) }

// DocNames returns the ingested document names in ingestion order.
func (s *Store) DocNames() []string {
	out := make([]string, len(s.docs))
	for i, sd := range s.docs {
		out[i] = sd.name
	}
	return out
}

// Close releases nothing, as the store holds no file or storage engine,
// and returns nil.
func (s *Store) Close() error { return nil }

// NumLFs returns the number of installed labeling functions.
func (s *Store) NumLFs() int { return len(s.lfs) }

// LFs returns a copy of the installed labeling functions.
func (s *Store) LFs() []labeling.LF {
	out := make([]labeling.LF, len(s.lfs))
	copy(out, s.lfs)
	return out
}

// FeatureIndex returns the session feature index: every feature at or
// above the MinFeatureCount floor over the whole ingested corpus, in
// admission order. Admission is append-only (counts never shrink), so
// the list only grows across AddDocuments calls.
func (s *Store) FeatureIndex() *features.Index { return s.dict }

// StorageStats describes the store's storage — the operator-facing
// counters surfaced by the serving layer's /meta endpoint.
type StorageStats struct {
	// Backend echoes the (defaulted) Options.Backend: "memory", "disk"
	// or "columnar". The store keeps its relations itself on every kind.
	Backend string
	// Docs is the ingested document count.
	Docs int
	// Deprecated: PeakResidentDocs always equals Docs — every document
	// is resident (DESIGN.md, "Why documents stay resident"). It is
	// kept only because benchmark/ still reads it; it goes when the
	// next benchmark-archetype PR drops that read (ROADMAP item 3(d)).
	PeakResidentDocs int
}

// StorageStats reports the store's current storage counters. Like all
// whole-store reads it must run on the writer goroutine (StoreView
// captures it at build time for concurrent readers).
func (s *Store) StorageStats() StorageStats {
	return StorageStats{Backend: s.opts.Backend, Docs: len(s.docs), PeakResidentDocs: len(s.docs)}
}

// LabelMatrix is the Labels relation as a label matrix over all
// ingested candidates — the development-mode view DevSession inspects
// between labeling-function iterations. It shares the store's vote
// rows, so it must be read before the next mutation.
func (s *Store) LabelMatrix() *labeling.Matrix {
	return &labeling.Matrix{Votes: s.votes, NumLFs: len(s.lfs)}
}

// Epoch returns the number of completed mutations (document ingests
// and labeling-function installs/edits). Each published StoreView is
// stamped with the epoch it was built at.
func (s *Store) Epoch() uint64 { return s.epoch }

// The errors a store call can return because of its input; match them
// with errors.Is.
var (
	// ErrDocumentExists: a document of the batch carries a name the
	// store (or the batch) already holds. Nothing was ingested.
	ErrDocumentExists = errors.New("core: document name conflict")
	// ErrInvalidDocument: a document of the batch cannot be persisted
	// (checkPersistable). Nothing was ingested.
	ErrInvalidDocument = errors.New("core: invalid document")
)

// beginMutation opens a guarded call. It enforces the
// writer-goroutine-only contract — a second call entering while one is
// in flight panics immediately rather than corrupting the relations;
// that is two goroutines using one store, a caller bug that neither a
// document nor an I/O error can produce.
func (s *Store) beginMutation() {
	if !s.mutating.CompareAndSwap(false, true) {
		panic("core: concurrent Store mutation — Store writes are writer-goroutine-only; " +
			"publish StoreViews (Store.View) for concurrent readers")
	}
}

// endMutation releases the guard; changed mutations advance the epoch.
func (s *Store) endMutation(changed bool) {
	if changed {
		s.epoch++
	}
	s.mutating.Store(false)
}

// AddDocuments ingests documents incrementally: the Extract,
// Featurize and Supervise stages run for the new documents only, their
// features are added to the session counts, and the features that
// crossed the admission floor join the session index (append-only:
// counts never shrink, so features only ever cross the floor upward).
//
// Ingesting the same *Document pointer again is a no-op; a different
// document with an already-ingested name is ErrDocumentExists, on every
// backend, and a document carrying the reserved separator bytes is
// ErrInvalidDocument. Either refuses the whole batch with the store
// untouched. The resulting store state is observably equivalent
// regardless of how a corpus is batched across AddDocuments calls.
func (s *Store) AddDocuments(docs ...*datamodel.Document) error {
	s.beginMutation()
	changed := false
	defer func() { s.endMutation(changed) }()

	// ---- Validate: everything the input can make fail, for the whole
	// batch, before anything is computed or changed.
	var delta []*datamodel.Document
	seen := map[string]*datamodel.Document{}
	for _, d := range docs {
		if prev, ok := s.byName[d.Name]; ok {
			if prev.doc == d {
				continue
			}
			return fmt.Errorf("%w: %q is already ingested with different contents", ErrDocumentExists, d.Name)
		}
		if prev, ok := seen[d.Name]; ok {
			if prev == d {
				continue
			}
			return fmt.Errorf("%w: %q appears twice in one batch", ErrDocumentExists, d.Name)
		}
		if err := checkPersistable(d); err != nil {
			return err
		}
		seen[d.Name] = d
		delta = append(delta, d)
	}
	if len(delta) == 0 {
		return nil
	}
	workers := s.opts.Workers

	// ---- Extract stage (delta only).
	t0 := time.Now()
	perDoc := extractStage(s.task, delta, s.opts.Scope, !s.opts.NoThrottlers, workers)
	// Global candidate IDs are dense in ingestion order.
	deltaCands := numberCandidates(perDoc, len(s.cands))
	spans := []obs.Span{obs.NewSpan("extract", t0, len(delta), len(deltaCands), pool.Workers(workers))}

	// ---- Featurize stage (delta only).
	t0 = time.Now()
	feats := featurizeStage(extractorFactory(s.opts), perDoc, workers)
	spans = append(spans, obs.NewSpan("featurize", t0, len(deltaCands), len(deltaCands), pool.Workers(workers)))

	// ---- Supervise stage (delta only).
	t0 = time.Now()
	votes := labeling.ParallelVotes(s.lfs, deltaCands, workers)
	spans = append(spans, obs.NewSpan("supervise", t0, len(deltaCands), len(votes), pool.Workers(workers)))

	// ---- Commit point. Nothing above touched the store and nothing
	// below depends on the input or can fail. Merge: append per-document
	// state and the Features rows as ids — this is where a name is first
	// interned — count the relations' new rows, then the features.
	t0 = time.Now()
	changed = true
	s.votes = append(s.votes, votes...)
	for _, v := range votes {
		s.rows[tblLabels] += countVotes(v)
	}
	firstCand := len(s.names)
	for i, d := range delta {
		sd := &storeDoc{
			doc: d, name: d.Name, format: d.Format, pos: len(s.docs),
			cands: perDoc[i], stats: feats[i].stats,
		}
		s.docs = append(s.docs, sd)
		s.byName[d.Name] = sd
		s.cands = append(s.cands, perDoc[i]...)
		s.names = append(s.names, internRows(s.feats, feats[i].names)...)
		s.rows[tblSentences] += len(d.Sentences())
		for _, c := range perDoc[i] {
			s.rows[tblCands] += len(c.Mentions)
		}
	}
	s.rows[tblDocuments] = len(s.docs)
	for _, ids := range s.names[firstCand:] {
		s.rows[tblFeatures] += len(ids)
	}
	admitted := s.countFeatures(s.names[firstCand:])
	s.ingestSpans = append(spans, obs.NewSpan("merge", t0, len(deltaCands), admitted, 0))
	return nil
}

// countVotes counts the non-abstain votes: the Labels rows they are.
func countVotes(votes []int8) int {
	n := 0
	for _, v := range votes {
		if v != 0 {
			n++
		}
	}
	return n
}

// countFeatures adds Features rows — new candidates' distinct features,
// as ids into feats — to the counts, and admits to dict the names whose
// count crossed the MinFeatureCount floor, returning how many. A count
// grows by one, so it passes the floor exactly once; the names that did
// are admitted in sorted order, so that admission order does not depend
// on the order names were seen in. It is the one counting path: of each
// AddDocuments batch, and of the whole corpus in OpenStore.
func (s *Store) countFeatures(rows [][]uint32) int {
	s.counts = append(s.counts, make([]int, s.feats.Len()-len(s.counts))...)
	floor := max(s.opts.MinFeatureCount, 1)
	var admitted []string
	for _, ids := range rows {
		for _, id := range ids {
			if s.counts[id]++; s.counts[id] == floor {
				admitted = append(admitted, s.feats.Name(int(id)))
			}
		}
	}
	sort.Strings(admitted)
	for _, n := range admitted {
		s.dict.ID(n)
	}
	return len(admitted)
}

// TakeIngestSpans drains the stage timing of the most recent
// AddDocuments call (nil when nothing was ingested since the last
// drain). Writer-goroutine-only, like every mutating accessor: the
// serving layer calls it immediately after Ingest, on its writer
// goroutine, to build the published trace.
func (s *Store) TakeIngestSpans() []obs.Span {
	sp := s.ingestSpans
	s.ingestSpans = nil
	return sp
}

// AddLF installs a labeling function and applies it to every ingested
// candidate — the Supervise stage re-run for one new Labels column.
// It returns the LF's column index and never fails: the error result is
// always nil.
func (s *Store) AddLF(lf labeling.LF) (int, error) {
	s.beginMutation()
	defer s.endMutation(true)
	col := len(s.lfs)
	s.lfs = append(s.lfs, lf)
	votes := labeling.ParallelColumnVotes(lf, s.cands, s.opts.Workers)
	for i := range s.votes {
		s.votes[i] = append(s.votes[i], votes[i])
	}
	s.rows[tblLabels] += countVotes(votes)
	return col, nil
}

// EditLF replaces the labeling function at col and re-applies it to
// every candidate: the column's votes are replaced in place. A column
// that does not exist is the only error, and leaves the store untouched.
func (s *Store) EditLF(col int, lf labeling.LF) error {
	if col < 0 || col >= len(s.lfs) {
		return fmt.Errorf("core: no labeling function at column %d", col)
	}
	s.beginMutation()
	defer s.endMutation(true)
	s.lfs[col] = lf
	votes := labeling.ParallelColumnVotes(lf, s.cands, s.opts.Workers)
	for i := range s.votes {
		if s.votes[i][col] != 0 {
			s.rows[tblLabels]--
		}
		s.votes[i][col] = votes[i]
	}
	s.rows[tblLabels] += countVotes(votes)
	return nil
}

// splitView assembles one split's staged relations by reading the
// store: candidates in name-list document order, each candidate's row
// of the Features relation, and the split's summed cache statistics.
func (s *Store) splitView(names []string) (stagedSplit, error) {
	sp := stagedSplit{dict: s.feats.NamesView()}
	for _, name := range names {
		sd, ok := s.byName[name]
		if !ok {
			return sp, fmt.Errorf("core: document %q is not in the store", name)
		}
		for _, c := range sd.cands {
			sp.cands = append(sp.cands, c)
			sp.names = append(sp.names, s.names[c.ID])
		}
		sp.stats.Hits += sd.stats.Hits
		sp.stats.Misses += sd.stats.Misses
	}
	return sp, nil
}

// RunSplit runs the Train/Classify half of the pipeline over a
// train/test split of the ingested corpus, reading every input from
// the store's materialized relations — no parsing, extraction,
// featurization or labeling-function application happens here. The
// Result is bit-identical to Run(task, train, test, gold, opts) over
// the same documents in the same split order, regardless of how (or
// in how many batches) the corpus was ingested.
//
// Splits may overlap (production mode often classifies the full
// corpus, including the training documents). The session index admits
// features by whole-corpus counts; RunSplit derives the run's frozen
// index from the train split's counts, and the numeric feature rows
// under it, exactly as a from-scratch run would.
func (s *Store) RunSplit(trainNames, testNames []string, gold []GoldTuple) (Result, error) {
	train, err := s.splitView(trainNames)
	if err != nil {
		return Result{}, err
	}
	test, err := s.splitView(testNames)
	if err != nil {
		return Result{}, err
	}
	var labels *labeling.Matrix
	if s.opts.Marginals == nil {
		rows := make([][]int8, len(train.cands))
		for i, c := range train.cands {
			rows[i] = s.votes[c.ID]
		}
		labels = &labeling.Matrix{Votes: rows, NumLFs: len(s.lfs)}
	}
	testDocs := map[string]bool{}
	for _, n := range testNames {
		testDocs[n] = true
	}
	res, _ := runStages(s.task, s.opts, train, test, labels, testDocs, gold)
	return res, nil
}
