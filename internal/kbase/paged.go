package kbase

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// Default page geometry of the paged engines: rows per page and cached
// decoded pages per table. A table's decoded footprint is bounded by
// cachePages*pageRows rows plus one partial tail page, independent of
// table size.
const (
	defaultPageRows   = 128
	defaultCachePages = 16
)

// pageStore holds sealed pages (binaryCodec blobs) as opaque bytes. It is
// what makes a paged engine kind — one implementation keeps the pages in
// a file, one on the heap — and the seam where a test substitutes a store
// that fails. The backend calls a store only while holding its own
// mutex, puts pages 0, 1, 2… in order, and never rewrites a page it has
// put.
type pageStore interface {
	put(p int, page []byte) error
	get(p int) ([]byte, error)
	// fresh returns an empty store of the same kind for a DeleteWhere
	// rewrite to fill. The rewrite ends by closing it (nothing was
	// deleted) or by handing it to adopt.
	fresh() (pageStore, error)
	// adopt replaces the receiver's pages with those of a store its
	// fresh returned, which must not be used afterwards.
	adopt(next pageStore) error
	// close discards every page.
	close() error
}

// segmentStore keeps a table's pages back to back in one file — the
// access pattern above is a log's — with the page boundaries in memory.
// The file is created by the first put and held open until close, so a
// table that never seals a page costs neither a file nor a descriptor.
// It is a paging area, not a persistence format — durable snapshots
// remain SaveDB's TSV directories — so it carries no crash-consistency
// machinery.
type segmentStore struct {
	path string
	f    *os.File // nil until the first put
	ends []int64  // ends[p] is the offset just past page p
}

// start returns the offset of page p: the end of page p-1.
func (s *segmentStore) start(p int) int64 {
	if p == 0 {
		return 0
	}
	return s.ends[p-1]
}

func (s *segmentStore) put(p int, page []byte) (err error) {
	if p != len(s.ends) {
		return fmt.Errorf("page %d put out of order (have %d)", p, len(s.ends))
	}
	if s.f == nil {
		if s.f, err = os.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
			return err
		}
	}
	// The directory moves only once the page is written whole: a failed
	// or short write leaves the store as it was, and the retry overwrites
	// the same range.
	off := s.start(p)
	if _, err := s.f.WriteAt(page, off); err != nil {
		return err
	}
	s.ends = append(s.ends, off+int64(len(page)))
	return nil
}

func (s *segmentStore) get(p int) ([]byte, error) {
	if p < 0 || p >= len(s.ends) {
		return nil, fmt.Errorf("no page %d (have %d)", p, len(s.ends))
	}
	off := s.start(p)
	page := make([]byte, s.ends[p]-off)
	if _, err := s.f.ReadAt(page, off); err != nil { // a short read is an error
		return nil, err
	}
	return page, nil
}

func (s *segmentStore) fresh() (pageStore, error) {
	return &segmentStore{path: s.path + ".rewrite"}, nil
}

func (s *segmentStore) adopt(next pageStore) error {
	n := next.(*segmentStore)
	if err := s.close(); err != nil || n.f == nil { // no survivor sealed a page: no segment
		return err
	}
	if err := os.Rename(n.path, s.path); err != nil {
		return err
	}
	s.f, s.ends = n.f, n.ends
	return nil
}

func (s *segmentStore) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if rerr := os.Remove(s.path); err == nil && !errors.Is(rerr, fs.ErrNotExist) {
		err = rerr // already gone (the engine removed the spill first) is fine
	}
	s.f, s.ends = nil, nil
	return err
}

// heapStore keeps pages in memory. A page handed out by get stays valid
// after adopt or close: pages are immutable and merely unreferenced.
type heapStore struct{ pages [][]byte }

func (s *heapStore) put(p int, page []byte) error {
	if p != len(s.pages) {
		return fmt.Errorf("page %d put out of order (have %d)", p, len(s.pages))
	}
	s.pages = append(s.pages, page)
	return nil
}

func (s *heapStore) get(p int) ([]byte, error) {
	if p < 0 || p >= len(s.pages) {
		return nil, fmt.Errorf("no page %d (have %d)", p, len(s.pages))
	}
	return s.pages[p], nil
}

func (s *heapStore) fresh() (pageStore, error) { return &heapStore{}, nil }

func (s *heapStore) adopt(next pageStore) error {
	s.pages = next.(*heapStore).pages
	return nil
}

func (s *heapStore) close() error {
	s.pages = nil
	return nil
}

// PagedEngine creates the paged backends. Its kind says where their
// pages live and nothing else: "disk" keeps them in one segment file of
// the spill directory per table, so a table's resident footprint is the
// decoded-page cache plus its tail, whatever its size, and one open
// descriptor once it has sealed a page; "columnar" keeps them on the
// heap. Durable snapshots are SaveDB's TSV for both, rendered from the
// bit-exact stored values.
type PagedEngine struct {
	dir        string // spill directory; "" keeps pages on the heap
	pageRows   int
	cachePages int
	owned      bool // engine created dir and removes it on Close

	mu  sync.Mutex
	seq int // per-table segment counter
}

// NewDiskEngine creates a paged engine spilling under dir (a fresh
// os.MkdirTemp directory when dir is empty, removed on Close).
// pageRows and cachePages override the default page geometry when
// positive; cachePages bounds the per-table LRU of fully decoded pages
// behind Get and unfiltered reads.
func NewDiskEngine(dir string, pageRows, cachePages int) (*PagedEngine, error) {
	e := NewColumnarEngine(pageRows, cachePages) // the geometry; a spill directory makes it "disk"
	if dir == "" {
		tmp, err := os.MkdirTemp("", "kbase-spill-")
		if err != nil {
			return nil, fmt.Errorf("kbase: creating spill directory: %w", err)
		}
		dir, e.owned = tmp, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e.dir = dir
	return e, nil
}

// NewColumnarEngine creates a paged engine with its pages on the heap;
// pageRows and cachePages as for NewDiskEngine.
func NewColumnarEngine(pageRows, cachePages int) *PagedEngine {
	if pageRows <= 0 {
		pageRows = defaultPageRows
	}
	if cachePages <= 0 {
		cachePages = defaultCachePages
	}
	return &PagedEngine{pageRows: pageRows, cachePages: cachePages}
}

// Kind returns "disk" or "columnar".
func (e *PagedEngine) Kind() string {
	if e.dir == "" {
		return "columnar"
	}
	return "disk"
}

// NewBackend creates an empty backend for one table: over the heap, or
// over its own segment of the spill.
func (e *PagedEngine) NewBackend(schema Schema) (Backend, error) {
	if e.dir == "" {
		return newPagedBackend(e.Kind(), schema, &heapStore{}, e.pageRows, e.cachePages), nil
	}
	e.mu.Lock()
	e.seq++
	name := fmt.Sprintf("t%04d", e.seq)
	e.mu.Unlock()
	if safeTableFile(schema.Name) {
		name += "-" + schema.Name
	}
	store := &segmentStore{path: filepath.Join(e.dir, name+".seg")}
	b := newPagedBackend(e.Kind(), schema, store, e.pageRows, e.cachePages)
	// GC backstop for sessions dropped without Close: the backend is
	// reachable from the stack during every operation on it, so the
	// finalizer can only fire once no reader or writer can ever touch
	// the segment again. (A finalizer higher up — on the table, DB
	// or store — would be unsafe: those can become unreachable while a
	// method still scans this backend.) Explicit Close remains the
	// deterministic cleanup path.
	runtime.SetFinalizer(b, func(fb *pagedBackend) { fb.Close() })
	return b, nil
}

// Close removes the spill directory when the engine created it.
func (e *PagedEngine) Close() error {
	if e.owned {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// ColumnarStats is a paged backend's decode accounting, exposed for the
// in-page-pruning tests: it proves filtered reads touch only predicate
// columns plus the materialized window.
type ColumnarStats struct {
	// Pages counts full encoded pages.
	Pages int
	// PagesSkipped counts pages pruned by zone maps on filtered reads —
	// never parsed or decoded.
	PagesSkipped int64
	// CellsDecoded counts, per schema column, cells examined by
	// predicate evaluation plus cells materialized into tuples (by
	// lazy window materialization or full-page loads). A column that
	// is neither filtered on nor selected stays at its floor.
	CellsDecoded []int64
}

// ColumnarStats returns the table's decode accounting, and false when
// the table is not backed by a paged engine.
func (t *Table) ColumnarStats() (ColumnarStats, bool) {
	b, ok := t.be.(*pagedBackend)
	if !ok {
		return ColumnarStats{}, false
	}
	cs := ColumnarStats{
		Pages:        b.Stats().Pages,
		PagesSkipped: b.skipped.Load(),
		CellsDecoded: make([]int64, len(b.decoded)),
	}
	for c := range b.decoded {
		cs.CellsDecoded[c] = b.decoded[c].Load()
	}
	return cs, true
}

// pagedBackend is the one paged storage engine: a table's rows as
// sealed fixed-size binaryCodec pages in a pageStore, plus an in-memory
// tail (the rows beyond the last full page) that is sealed when it
// fills. Each sealed page has an in-memory zone map (zonemap.go); reads
// of whole pages go through a small LRU of decoded pages, filtered reads
// go around it and decode only what they need.
//
//	Append ─► tail ──(pageRows rows)──► encode ─► store.put
//	                                     └► buildPageZone ─► zones
//	Get, unfiltered reads ─► LRU ─(miss)─► store.get ─► decode
//	filtered reads ─► zones prune ─► store.get ─► predicate columns
//	                                 ─► the window's rows (columnRows)
//
// Locking: mu guards the geometry, the tail, the LRU and every call
// into the store. Reads snapshot (pages, tail, zones) and then take mu
// page by page, so row callbacks run unlocked and may re-enter the
// table's read paths (Contains during Compare). That is sound because
// sealed pages, zone-map elements and tail elements below the snapshot
// length never change; an Append may run beside any number of reads.
// DeleteWhere renumbers pages, so it must not run beside a read — the
// single-writer store sessions that own paged tables never do that.
//
// A page the store cannot return, or bytes that do not decode,
// panic with the table and page: the pages are process-private
// transient state this backend wrote itself, and losing one mid-session
// is unrecoverable in the way losing heap would be. Append and Snapshot
// return their errors.
type pagedBackend struct {
	kind       string
	schema     Schema
	pageRows   int
	cachePages int

	mu    sync.Mutex
	store pageStore
	n     int        // total rows
	pages int        // sealed pages
	tail  []Tuple    // rows past the last sealed page
	cells Tuple      // the page-sized buffer Append cuts the tail's rows from
	zones []pageZone // one per sealed page, immutable once appended

	cached map[int]*list.Element // page -> lru element
	lru    *list.List            // of *cachedPage, front = most recent
	hits   int64
	misses int64

	// skipped counts zone-pruned pages and decoded the cells decoded
	// per column (ColumnarStats.CellsDecoded); both atomic because
	// filtered reads update them without holding mu.
	skipped atomic.Int64
	decoded []atomic.Int64
}

// cachedPage is one decoded page in the LRU.
type cachedPage struct {
	page int
	rows []Tuple
}

func newPagedBackend(kind string, schema Schema, store pageStore, pageRows, cachePages int) *pagedBackend {
	return &pagedBackend{
		kind: kind, schema: schema, store: store,
		pageRows: pageRows, cachePages: cachePages,
		cached: map[int]*list.Element{}, lru: list.New(),
		decoded: make([]atomic.Int64, schema.Arity()),
	}
}

func (b *pagedBackend) Kind() string { return b.kind }

func (b *pagedBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// lost reports a sealed page that cannot be read back.
func (b *pagedBackend) lost(p int, err error) {
	panic(fmt.Sprintf("kbase: %s backend for %s lost page %d: %v", b.kind, b.schema.Name, p, err))
}

// countDecoded charges cells decoded cells to column col.
func (b *pagedBackend) countDecoded(col, cells int) {
	b.decoded[col].Add(int64(cells))
}

// fetch returns page p's bytes.
func (b *pagedBackend) fetch(p int) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.store.get(p)
}

// decodePage reads and fully decodes page p, bypassing the LRU. Caller
// holds mu.
func (b *pagedBackend) decodePage(p int) []Tuple {
	page, err := b.store.get(p)
	if err != nil {
		b.lost(p, err)
	}
	rows, err := binaryCodec{}.decode(b.schema, page)
	if err != nil {
		b.lost(p, err)
	}
	for c := range b.decoded {
		b.countDecoded(c, len(rows))
	}
	return rows
}

// load returns page p's decoded rows through the LRU. Caller holds mu.
func (b *pagedBackend) load(p int) []Tuple {
	if el, ok := b.cached[p]; ok {
		b.hits++
		b.lru.MoveToFront(el)
		return el.Value.(*cachedPage).rows
	}
	b.misses++
	rows := b.decodePage(p)
	b.cached[p] = b.lru.PushFront(&cachedPage{page: p, rows: rows})
	for b.lru.Len() > b.cachePages {
		old := b.lru.Back()
		b.lru.Remove(old)
		delete(b.cached, old.Value.(*cachedPage).page)
	}
	return rows
}

// invalidate drops the decoded-page cache. Caller holds mu.
func (b *pagedBackend) invalidate() {
	b.cached = map[int]*list.Element{}
	b.lru.Init()
}

// Append fills the tail from the batch — the rows that fit, a column at a
// time — and seals it each time it reaches a page. The tail's rows are
// cut from one cell buffer a page, each capped to its own cells: row k of
// the tail is cells k*arity onwards, so a row taken back out below is
// simply overwritten by the retry. mu is held throughout: a read waits
// for the batch, not for a row.
func (b *pagedBackend) Append(bt *Batch, rows []int) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	arity := b.schema.Arity()
	stored := 0
	for stored < len(rows) {
		if b.cells == nil {
			b.cells = make(Tuple, b.pageRows*arity)
		}
		at := len(b.tail)
		fit := rows[stored:min(len(rows), stored+b.pageRows-at)]
		for c := range bt.cols {
			bt.cols[c].box(b.cells[at*arity+c:], arity, fit)
		}
		for k := range fit {
			b.tail = append(b.tail, b.cells[(at+k)*arity:][:arity:arity])
		}
		b.n += len(fit)
		stored += len(fit)
		if len(b.tail) < b.pageRows {
			break
		}
		page, err := binaryCodec{}.encode(b.schema, b.tail)
		if err == nil {
			err = b.store.put(b.pages, page)
		}
		if err != nil {
			// Take the row that filled the page back out, so the backend is
			// as it was before that row and the next Append retries the
			// flush.
			b.tail = b.tail[:len(b.tail)-1]
			b.n--
			return stored - 1, fmt.Errorf("kbase: flushing page %d for %s: %w", b.pages, b.schema.Name, err)
		}
		b.zones = append(b.zones, buildPageZone(b.schema, b.tail))
		b.pages++
		b.tail, b.cells = nil, nil // readers may still hold the sealed slice
	}
	return stored, nil
}

// box writes the listed cells, as a Tuple holds them, to dst[0],
// dst[stride], dst[2*stride], …: in the box the cell arrived in when the
// batch carries one, else in the box of the cell listed before it when
// the two are the same bits, else in a new one.
func (v *vector) box(dst Tuple, stride int, rows []int) {
	var cell any
	for k, r := range rows {
		if carried := v.carried(r); carried != nil {
			cell = carried
		} else {
			switch {
			case len(v.ints) > 0:
				if k == 0 || v.ints[r] != v.ints[rows[k-1]] {
					cell = v.ints[r]
				}
			case len(v.floats) > 0:
				if k == 0 || math.Float64bits(v.floats[r]) != math.Float64bits(v.floats[rows[k-1]]) {
					cell = v.floats[r]
				}
			default:
				if k == 0 || v.strs[r] != v.strs[rows[k-1]] {
					cell = v.strs[r]
				}
			}
		}
		dst[k*stride] = cell
	}
}

func (b *pagedBackend) Equal(i int, bt *Batch, r int) bool { return bt.equalTuple(r, b.Get(i)) }

// Get returns the row at position i (borrowed), through the LRU.
func (b *pagedBackend) Get(i int) Tuple {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("kbase: %s backend for %s: row %d out of range [0,%d)", b.kind, b.schema.Name, i, b.n))
	}
	if sealed := b.pages * b.pageRows; i >= sealed {
		return b.tail[i-sealed]
	}
	return b.load(i / b.pageRows)[i%b.pageRows]
}

// read is the one page walk behind both read methods. It numbers the
// rows matching m in insertion order, calls emit for those the window
// admits until emit returns false, and returns the match count (exact
// unless emit stopped the walk) and the number of pages the zone maps
// ruled out — pages never fetched or decoded. detached tells emit the
// tuple is its own, not the cache's or tail's. With an index plan's
// candidate positions in at there is no walk: each is fetched through
// the LRU and checked.
func (b *pagedBackend) read(at []int, m matcher, w window, emit func(tp Tuple, detached bool) bool) (total, pruned int) {
	if at != nil {
		for _, pos := range at {
			if tp := b.Get(pos); m.match(tp) && w.admit() && !emit(tp, false) {
				break
			}
		}
		return w.seen, 0
	}
	b.mu.Lock()
	n, pages, tail, zones := b.n, b.pages, b.tail, b.zones
	b.mu.Unlock()
	if len(m.preds) == 0 {
		// Every row matches, so match k is row k: start at the page
		// holding the window's first row, and slice the window out of each
		// decoded page (through the LRU) directly.
		first := min(w.offset/b.pageRows, pages)
		w.seen = first * b.pageRows
		emitRun := func(rows []Tuple) bool {
			lo, hi := w.take(len(rows))
			for _, tp := range rows[lo:hi] {
				if !emit(tp, false) {
					return false
				}
			}
			return true
		}
		for p := first; p < pages; p++ {
			if w.full() {
				return n, 0 // nothing left to emit, and the count is known
			}
			b.mu.Lock()
			cached := b.load(p)
			b.mu.Unlock()
			if !emitRun(cached) {
				return w.seen, 0
			}
		}
		emitRun(tail)
		return w.seen, 0
	}
	for p := 0; p < pages; p++ {
		if !zones[p].mayMatch(m) {
			pruned++
			b.skipped.Add(1)
			continue
		}
		page, err := b.fetch(p)
		if err != nil {
			b.lost(p, err)
		}
		detached, err := b.columnRows(page, m, &w)
		if err != nil {
			b.lost(p, err)
		}
		for _, tp := range detached {
			if !emit(tp, true) {
				return w.seen, pruned
			}
		}
	}
	for _, tp := range tail {
		if m.match(tp) && w.admit() && !emit(tp, false) {
			return w.seen, pruned
		}
	}
	return w.seen, pruned
}

// columnRows answers one sealed page of a filtered read: match on the
// predicate columns, then materialize only the matches the window
// admits.
func (b *pagedBackend) columnRows(page []byte, m matcher, w *window) ([]Tuple, error) {
	pg, err := binaryCodec{}.parse(b.schema, page)
	if err != nil {
		return nil, err
	}
	sel, err := pg.match(m, b.countDecoded)
	if err != nil {
		return nil, err
	}
	lo, hi := w.take(len(sel))
	if lo == hi {
		return nil, nil
	}
	return pg.rows(sel[lo:hi], b.countDecoded)
}

func (b *pagedBackend) Scan(at []int, m matcher, fn func(Tuple) bool) {
	b.read(at, m, window{}, func(tp Tuple, _ bool) bool { return fn(tp) })
}

func (b *pagedBackend) Page(at []int, m matcher, offset, limit int) ([]Tuple, int, int) {
	var out []Tuple
	total, pruned := b.read(at, m, newWindow(offset, limit), func(tp Tuple, detached bool) bool {
		if !detached {
			tp = tp.Clone()
		}
		out = append(out, tp)
		return true
	})
	return out, total, pruned
}

func (b *pagedBackend) DeleteWhere(pred func(Tuple) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Stream the survivors into a fresh page sequence, one page buffer
	// in memory at a time, then swap: the delete never materializes the
	// table. Pages are decoded bypassing the LRU, which the swap empties.
	rewrite := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("kbase: %s backend for %s: delete rewrite: %v", b.kind, b.schema.Name, err))
		}
	}
	next, err := b.store.fresh()
	rewrite(err)
	kept := make([]Tuple, 0, b.pageRows)
	var zones []pageZone
	keptN, deleted := 0, 0
	consider := func(tp Tuple) {
		if pred(tp) {
			deleted++
			return
		}
		kept = append(kept, tp)
		keptN++
		if len(kept) < b.pageRows {
			return
		}
		page, err := binaryCodec{}.encode(b.schema, kept)
		rewrite(err)
		rewrite(next.put(len(zones), page))
		zones = append(zones, buildPageZone(b.schema, kept))
		kept = kept[:0]
	}
	for p := 0; p < b.pages; p++ {
		for _, tp := range b.decodePage(p) {
			consider(tp)
		}
	}
	for _, tp := range b.tail {
		consider(tp)
	}
	if deleted == 0 {
		_ = next.close() // a leftover empty rewrite area is overwritten by the next one
		return 0
	}
	rewrite(b.store.adopt(next))
	b.n, b.pages, b.zones = keptN, len(zones), zones
	b.tail, b.cells = append([]Tuple(nil), kept...), nil
	b.invalidate()
	return deleted
}

func (b *pagedBackend) Snapshot(w io.Writer) error {
	b.mu.Lock()
	pages, tail := b.pages, b.tail
	b.mu.Unlock()
	for p := 0; p < pages; p++ {
		page, err := b.fetch(p)
		if err == nil {
			err = binaryCodec{}.writeTSV(w, b.schema, page)
		}
		if err != nil {
			return fmt.Errorf("kbase: %s backend for %s: snapshot page %d: %w", b.kind, b.schema.Name, p, err)
		}
	}
	return writeRowsTSV(w, tail)
}

func (b *pagedBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{
		Pages:        b.pages,
		CacheHits:    b.hits,
		CacheMisses:  b.misses,
		PagesSkipped: b.skipped.Load(),
	}
}

func (b *pagedBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidate()
	b.n, b.pages, b.tail, b.cells, b.zones = 0, 0, nil, nil, nil
	return b.store.close()
}
