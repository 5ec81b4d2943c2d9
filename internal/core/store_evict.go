package core

import (
	"fmt"
	"sort"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/kbase"
	"repro/internal/labeling"
)

// Parsed-document eviction (Options.MaxResidentDocs > 0): the store's
// heavy per-document state — the parsed document DAG and the
// candidate objects spanning it — is a cache over the persisted
// sentences/candidates relations, not the source of truth. After a
// document's relations are materialized, the store may drop its
// hydrated form and rebuild it on demand through exactly the code
// path a snapshot resume uses, whose fidelity is the proven invariant
// (TestStoreResumeLFFidelity: rehydrated documents yield bit-identical
// features, votes and training inputs). The budget bounds how many
// documents are hydrated at once; reclamation is least-recently-used.
//
// Accounting contract: resident counts documents with sd.doc != nil;
// peakResident is sampled after every budget enforcement, so with a
// budget b the reported peak never exceeds b — the /meta counter the
// larger-than-RAM acceptance test asserts on.

// touch marks sd as most recently used: under a budget the store keeps
// its resident documents in a list, most recent first.
func (s *Store) touch(sd *storeDoc) {
	if s.opts.MaxResidentDocs <= 0 {
		return
	}
	if sd.lru == nil {
		sd.lru = s.lru.PushFront(sd)
	} else {
		s.lru.MoveToFront(sd.lru)
	}
}

// evictDoc drops one document's hydrated state. Its relations (and
// the RAM-resident skeleton: feature names, votes, counts) are
// untouched, so every store operation keeps working; only operations
// needing the document DAG pay a rehydration.
func (s *Store) evictDoc(sd *storeDoc) {
	if sd.doc == nil {
		return
	}
	for i := sd.candFirst; i < sd.candFirst+sd.candCount; i++ {
		s.cands[i] = nil
	}
	sd.cands = nil
	sd.doc = nil
	s.resident--
	if sd.lru != nil {
		s.lru.Remove(sd.lru)
		sd.lru = nil
	}
}

// enforceBudget evicts least-recently-used documents — the back of the
// resident list — until the resident count fits the budget, then
// samples the peak counter. Every resident document was touched when
// it was hydrated, so under a budget the list holds exactly the
// resident set.
func (s *Store) enforceBudget() {
	if budget := s.opts.MaxResidentDocs; budget > 0 {
		for s.resident > budget {
			s.evictDoc(s.lru.Back().Value.(*storeDoc))
		}
	}
	if s.resident > s.peakResident {
		s.peakResident = s.resident
	}
}

// accountHydrated records one newly hydrated (or newly ingested)
// document and immediately re-enforces the budget.
func (s *Store) accountHydrated(sd *storeDoc) {
	s.resident++
	s.touch(sd)
	s.enforceBudget()
}

// sameDocContent reports whether d carries exactly the sentence layer
// persisted for sd — the content-identity check behind idempotent
// re-ingestion under eviction, where pointer identity cannot be
// trusted. Sentence tuples capture every attribute the store
// persists, and extraction/featurization are pure functions of them,
// so tuple-equality implies observable equivalence. Values are
// compared in their canonical rendering (persisted rows hold
// normalized int64s where a fresh tuple holds ints).
func (s *Store) sameDocContent(sd *storeDoc, d *datamodel.Document) bool {
	if sd.format != d.Format {
		return false
	}
	sents := d.Sentences()
	rows := s.docRelationRows(tblSentences, sd.sentRowFirst, sd.sentRowCount, 0, sd.name)
	if len(rows) != len(sents) {
		return false
	}
	for i, sent := range sents {
		tp, err := sentenceTuple(sd.name, sent)
		if err != nil {
			return false
		}
		if len(tp) != len(rows[i]) {
			return false
		}
		for j := range tp {
			if fmt.Sprint(tp[j]) != fmt.Sprint(rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// docCandidates returns sd's candidates in global-ID order (index i
// is candidate candFirst+i), rehydrating an evicted document from the
// sentences/candidates relations. Rehydration installs the document
// back into the resident set (LRU semantics: repeated access is
// amortized) and evicts others as needed, so the budget holds even
// while a split iterates the whole corpus — callers keep their
// borrowed candidate slices alive independently of residency.
func (s *Store) docCandidates(sd *storeDoc) ([]*candidates.Candidate, error) {
	if sd.doc != nil {
		s.touch(sd)
		return sd.cands, nil
	}
	doc, cands, err := s.rebuildDocState(sd)
	if err != nil {
		return nil, err
	}
	sd.doc = doc
	sd.cands = cands
	for i, c := range cands {
		s.cands[sd.candFirst+i] = c
	}
	s.accountHydrated(sd)
	return cands, nil
}

// hydratedCandidates returns the full candidate list in global ID
// order with every evicted document rehydrated — the view-building
// read path, which needs each candidate's mention spans for serving
// and training.
func (s *Store) hydratedCandidates() ([]*candidates.Candidate, error) {
	out := make([]*candidates.Candidate, len(s.cands))
	copy(out, s.cands)
	for _, sd := range s.docs {
		if sd.doc != nil {
			continue
		}
		cands, err := s.docCandidates(sd)
		if err != nil {
			return nil, err
		}
		copy(out[sd.candFirst:sd.candFirst+sd.candCount], cands)
	}
	return out, nil
}

// sessionCandidates returns the fully hydrated candidate list — the
// read path for DevSession and other in-package callers that must
// never observe nil (evicted) entries. Without a budget it is the
// shared slice; under eviction it rehydrates through the LRU budget
// and panics on relation corruption (like every other session-fatal
// rehydration failure).
func (s *Store) sessionCandidates() []*candidates.Candidate {
	if s.opts.MaxResidentDocs <= 0 {
		return s.cands
	}
	out, err := s.hydratedCandidates()
	if err != nil {
		panic("core: " + err.Error())
	}
	return out
}

// columnVotes applies one labeling function to every ingested
// candidate. Under eviction it walks the corpus one document at a
// time — hydrating through the LRU budget — instead of demanding a
// fully resident candidate list; votes are a per-candidate pure
// function, so the result is bit-identical either way.
func (s *Store) columnVotes(lf labeling.LF) []int8 {
	if s.opts.MaxResidentDocs <= 0 {
		return labeling.ParallelColumnVotes(lf, s.cands, s.opts.Workers)
	}
	out := make([]int8, len(s.cands))
	for _, sd := range s.docs {
		cands, err := s.docCandidates(sd)
		if err != nil {
			// Rehydration failing means the session's own relations are
			// unreadable — as unrecoverable as losing the heap.
			panic("core: " + err.Error())
		}
		copy(out[sd.candFirst:sd.candFirst+sd.candCount], labeling.ParallelColumnVotes(lf, cands, s.opts.Workers))
	}
	return out
}

// candRow is one decoded candidates-relation row (a single mention).
type candRow struct {
	id, arg, sent, start, end int
	typ                       string
}

// docRelationRows fetches one document's rows from a relation whose
// rows are appended contiguously per document. When the row range is
// known (first >= 0) the fetch pages in exactly [first, first+count)
// — O(count) instead of O(relation) — verifying the doc column as a
// cheap corruption check; an unknown or unexpected layout falls back
// to the full filter scan.
func (s *Store) docRelationRows(table string, first, count, docCol int, name string) []kbase.Tuple {
	if count == 0 && first >= 0 {
		return nil
	}
	tbl := s.db.Table(table)
	if first >= 0 {
		rows := tbl.Page(first, count)
		if len(rows) == count {
			ok := true
			for _, tp := range rows {
				if tp[docCol].(string) != name {
					ok = false
					break
				}
			}
			if ok {
				return rows
			}
		}
	}
	// Push the doc-name filter into storage: on the disk backend the
	// scan then skips pages whose zone maps exclude the name instead of
	// decoding the whole relation.
	var out []kbase.Tuple
	tbl.ScanWhere([]kbase.Pred{{Col: docCol, Want: name}}, func(tp kbase.Tuple) bool {
		out = append(out, tp.Clone())
		return true
	})
	return out
}

// rebuildDocState rebuilds one document and its candidates from the
// persisted relations — the per-document slice of what OpenStore does
// for a whole snapshot.
func (s *Store) rebuildDocState(sd *storeDoc) (*datamodel.Document, []*candidates.Candidate, error) {
	var rows []sentRow
	for _, tp := range s.docRelationRows(tblSentences, sd.sentRowFirst, sd.sentRowCount, 0, sd.name) {
		r, err := decodeSentence(tp)
		if err != nil {
			return nil, nil, fmt.Errorf("core: rehydrating document %q: %w", sd.name, err)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].pos < rows[b].pos })
	doc, err := rebuildDoc(sd.name, sd.format, rows)
	if err != nil {
		return nil, nil, err
	}
	var mrows []candRow
	for _, tp := range s.docRelationRows(tblCands, sd.candRowFirst, sd.candRowCount, 3, sd.name) {
		mrows = append(mrows, decodeCandRow(tp))
	}
	cands, err := buildDocCandidates(sd.name, sd.candFirst, sd.candCount, mrows, doc)
	if err != nil {
		return nil, nil, err
	}
	return doc, cands, nil
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
// Shared by snapshot resume (OpenStore) and eviction rehydration, so
// the two paths cannot drift.
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

// StorageStats describes the store's storage engine and eviction
// state — the operator-facing counters surfaced by the serving
// layer's /meta endpoint.
type StorageStats struct {
	// Backend is the kbase engine kind ("memory", "disk" or
	// "columnar").
	Backend string
	// Docs is the total ingested document count; ResidentDocs of them
	// are currently hydrated. PeakResidentDocs is the high-water mark
	// of ResidentDocs (sampled after each budget enforcement), and
	// MaxResidentDocs the configured budget (0 = unlimited).
	Docs, ResidentDocs, PeakResidentDocs, MaxResidentDocs int
	// DiskPages counts sealed pages across relations (in spill files
	// for the "disk" kind, on the heap for "columnar"); the cache
	// counters report the decoded-page cache's effectiveness on both.
	DiskPages                      int
	PageCacheHits, PageCacheMisses int64
	PageCacheHitRate               float64
	// PagesSkipped counts pages pruned by zone maps on filtered reads;
	// IndexHits / FullScans count how filtered reads were planned
	// (hash index vs scan).
	PagesSkipped         int64
	IndexHits, FullScans int64
}

// StorageStats reports the store's current storage counters. Like all
// whole-store reads it must run on the writer goroutine (StoreView
// captures it at build time for concurrent readers).
func (s *Store) StorageStats() StorageStats {
	dbs := s.db.Stats()
	return StorageStats{
		Backend:          dbs.Backend,
		Docs:             len(s.docs),
		ResidentDocs:     s.resident,
		PeakResidentDocs: s.peakResident,
		MaxResidentDocs:  s.opts.MaxResidentDocs,
		DiskPages:        dbs.Pages,
		PageCacheHits:    dbs.CacheHits,
		PageCacheMisses:  dbs.CacheMisses,
		PageCacheHitRate: dbs.HitRate(),
		PagesSkipped:     dbs.PagesSkipped,
		IndexHits:        dbs.IndexHits,
		FullScans:        dbs.FullScans,
	}
}
