package kbase

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
)

// Page geometry: rows per page, and decoded pages cached per table of a
// kind with a page store. A disk table's resident footprint is bounded by
// cachePages*pageRows rows plus one partial tail page, independent of
// table size.
const (
	defaultPageRows   = 128
	defaultCachePages = 16
)

// pageStore holds sealed pages (binaryCodec blobs) as opaque bytes. It is
// what tells the disk kind from the columnar one — one implementation
// keeps the pages in a file, one on the heap — and the seam where a test
// substitutes a store that fails. The backend calls a store only while holding its own
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

// Engine creates the backends of a database's tables, one per table,
// sharing a storage policy. Its kind says where their pages live and
// nothing else: "memory" keeps every page open, with no page store;
// "columnar" seals each page as it fills onto the heap; "disk" seals it
// into one segment file of the spill directory per table, so a table's
// resident footprint is the decoded-page cache plus its tail, whatever
// its size, and one open descriptor once it has sealed a page. Durable
// snapshots are SaveDB's TSV for every kind, rendered from the bit-exact
// stored values. NewEngine, NewDiskEngine and NewColumnarEngine make one;
// the zero Engine is not usable.
type Engine struct {
	kind       string // "memory", "columnar" or "disk"
	dir        string // the disk kind's spill directory
	pageRows   int
	cachePages int
	owned      bool // engine created dir and removes it on Close

	mu  sync.Mutex
	seq int // per-table segment counter
}

// memoryEngine is the in-memory engine NewDB, NewTable, LoadDB and
// ReadTSV use. It holds no resources, so every database may share it.
var memoryEngine = &Engine{kind: "memory", pageRows: defaultPageRows}

// NewDiskEngine creates a disk engine spilling under dir (a fresh
// os.MkdirTemp directory when dir is empty, removed on Close).
// pageRows and cachePages override the default page geometry when
// positive; cachePages bounds the per-table LRU of decoded pages behind
// every read.
func NewDiskEngine(dir string, pageRows, cachePages int) (*Engine, error) {
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
	e.kind, e.dir = "disk", dir
	return e, nil
}

// NewColumnarEngine creates a columnar engine, its pages on the heap;
// pageRows and cachePages as for NewDiskEngine.
func NewColumnarEngine(pageRows, cachePages int) *Engine {
	if pageRows <= 0 {
		pageRows = defaultPageRows
	}
	if cachePages <= 0 {
		cachePages = defaultCachePages
	}
	return &Engine{kind: "columnar", pageRows: pageRows, cachePages: cachePages}
}

// newBackend creates an empty backend for one table: with no page store,
// over the heap, or over its own segment of the spill.
func (e *Engine) newBackend(schema Schema) *pagedBackend {
	switch e.kind {
	case "memory":
		return newPagedBackend(e.kind, schema, nil, e.pageRows, 0)
	case "columnar":
		return newPagedBackend(e.kind, schema, &heapStore{}, e.pageRows, e.cachePages)
	}
	e.mu.Lock()
	e.seq++
	name := fmt.Sprintf("t%04d", e.seq)
	e.mu.Unlock()
	if safeTableFile(schema.Name) {
		name += "-" + schema.Name
	}
	store := &segmentStore{path: filepath.Join(e.dir, name+".seg")}
	b := newPagedBackend(e.kind, schema, store, e.pageRows, e.cachePages)
	// GC backstop for sessions dropped without Close: the backend is
	// reachable from the stack during every operation on it, so the
	// finalizer can only fire once no reader or writer can ever touch
	// the segment again. (A finalizer higher up — on the table, DB
	// or store — would be unsafe: those can become unreachable while a
	// method still scans this backend.) Explicit Close remains the
	// deterministic cleanup path.
	runtime.SetFinalizer(b, func(fb *pagedBackend) { fb.Close() })
	return b
}

// Close removes the spill directory when the engine created it. The
// engine's tables must be closed first.
func (e *Engine) Close() error {
	if e.owned {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// pagedBackend is the row storage behind a Table. The Table keeps the
// relational semantics — schema checks, the dedup index, the filtered-read
// planner — so the backend only stores an ordered row sequence: rows are
// numbered in insertion order, Scan, Page and Snapshot observe them in that
// order, and Equal addresses them by it. It holds them as pageRows-row
// typed pages (colPage). The first are sealed — encoded as binaryCodec
// blobs into the kind's page store — and the rest are open, filled in
// place. The "memory" kind has no page store and never seals, so all its
// pages are open; they share one table-wide dictionary per string column,
// and its cache stays empty. The "disk" and "columnar" kinds seal a page as
// soon as it fills, so their one open page is the tail, with dictionaries
// of its own. Every read of a sealed page goes through a small LRU of
// decoded pages, and every read tests rows the same way on sealed and open
// pages.
//
//	Append ─► open page ──(pageRows rows, a store)──► encode ─► store.put
//	Get, reads ─► LRU ─(miss)─► store.get ─► decode
//
// Locking: mu guards pageSeq, the LRU and every call into the store. A
// read takes a snapshot of pageSeq and then takes mu page by page for the
// LRU, so row callbacks run unlocked and may re-enter the table's read
// paths (Contains during Equal). That is sound because an append only
// writes cells above the snapshot's row count, into vectors that never
// move, and only appends to the dictionaries, whose values the snapshot
// holds up to its own length; sealed pages and decoded ones never change.
// So an Append may run beside any number of reads. DeleteWhere
// renumbers rows, so it must not run beside a read — the single-writer
// store sessions never do that.
//
// A page the store cannot return, or bytes that do not decode, panic
// with the table and page: the pages are process-private transient state
// this backend wrote itself, and losing one mid-session is unrecoverable
// in the way losing heap would be. Append and Snapshot return their
// errors.
type pagedBackend struct {
	kind       string
	schema     Schema
	layout     layout
	pageRows   int
	cachePages int
	store      pageStore // nil on the memory kind

	mu sync.Mutex
	pageSeq

	cached map[int]*list.Element // page -> lru element
	lru    *list.List            // of *cachedPage, front = most recent
	hits   int64
	misses int64
}

// pageSeq is a table's row sequence: the sealed pages, then the open
// pages, whose string cells dicts numbers.
type pageSeq struct {
	n     int       // total rows
	pages int       // sealed pages
	open  []colPage // the pages after the sealed ones
	dicts []dict    // the open pages' dictionaries, one per string column
}

// cachedPage is one decoded page in the LRU.
type cachedPage struct {
	page int
	v    pageView
}

func newPagedBackend(kind string, schema Schema, store pageStore, pageRows, cachePages int) *pagedBackend {
	b := &pagedBackend{
		kind: kind, schema: schema, layout: newLayout(schema), store: store,
		pageRows: pageRows, cachePages: cachePages,
		cached: map[int]*list.Element{}, lru: list.New(),
	}
	b.pageSeq = b.emptySeq()
	return b
}

// emptySeq is a sequence of no rows, with empty dictionaries.
func (b *pagedBackend) emptySeq() pageSeq {
	dicts := make([]dict, b.layout.width[StringCol])
	for s := range dicts {
		dicts[s].idOf = map[string]uint32{}
	}
	return pageSeq{dicts: dicts}
}

// Len returns the number of stored rows.
func (b *pagedBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// lost reports a sealed page that cannot be read back.
func (b *pagedBackend) lost(p int, err error) {
	panic(fmt.Sprintf("kbase: %s backend for %s lost page %d: %v", b.kind, b.schema.Name, p, err))
}

// fetch returns page p's bytes.
func (b *pagedBackend) fetch(p int) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.store.get(p)
}

// decodePage reads and fully decodes page p, bypassing the LRU. Caller
// holds mu.
func (b *pagedBackend) decodePage(p int) pageView {
	page, err := b.store.get(p)
	if err != nil {
		b.lost(p, err)
	}
	v, err := binaryCodec{}.decode(&b.layout, page)
	if err != nil {
		b.lost(p, err)
	}
	return v
}

// load returns sealed page p decoded, through the LRU. Caller holds mu.
func (b *pagedBackend) load(p int) pageView {
	if el, ok := b.cached[p]; ok {
		b.hits++
		b.lru.MoveToFront(el)
		return el.Value.(*cachedPage).v
	}
	b.misses++
	v := b.decodePage(p)
	b.cached[p] = b.lru.PushFront(&cachedPage{page: p, v: v})
	for b.lru.Len() > b.cachePages {
		old := b.lru.Back()
		b.lru.Remove(old)
		delete(b.cached, old.Value.(*cachedPage).page)
	}
	return v
}

// invalidate drops the decoded-page cache. Caller holds mu.
func (b *pagedBackend) invalidate() {
	clear(b.cached)
	b.lru.Init()
}

// openView returns open page k of s.
func (b *pagedBackend) openView(s *pageSeq, k int) pageView {
	n := min(b.pageRows, s.n-(s.pages+k)*b.pageRows)
	return pageView{l: &b.layout, colPage: s.open[k], n: n, dicts: s.dicts}
}

// Append stores its own copy of rows rows[0], rows[1], … of the batch,
// which Table has checked against the schema, at positions Len(), Len()+1,
// …, and retains nothing of the batch. It fills the open pages a column at
// a time, sealing each page that fills on a kind with a page store. It
// stops at the first row it fails to store and returns how many it stored:
// those stay, and the backend is as if the call had listed only them (the
// next Append retries whatever failed). mu is held throughout: a read
// waits for the batch, not for a row.
func (b *pagedBackend) Append(bt *Batch, rows []int) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.append(bt, rows, b.store)
}

// append is Append into store. Caller holds mu.
func (b *pagedBackend) append(bt *Batch, rows []int, store pageStore) (int, error) {
	stored := 0
	for stored < len(rows) {
		at := (b.n - b.pages*b.pageRows) % b.pageRows // rows in the last open page, unless it is full
		if at == 0 {
			b.open = append(b.open, b.layout.newPage(b.pageRows))
		}
		pg := &b.open[len(b.open)-1]
		fit := rows[stored:min(len(rows), stored+b.pageRows-at)]
		for c := range bt.cols {
			b.put(pg, c, at, &bt.cols[c], fit)
		}
		b.n += len(fit)
		stored += len(fit)
		if err := b.seal(store); err != nil {
			// Take the row that filled the page back out, so the backend is
			// as it was before that row and the next Append retries the
			// seal, overwriting its cells.
			b.n--
			return stored - 1, err
		}
	}
	return stored, nil
}

// put writes the listed cells of the batch column v, which Table has
// checked is of column c's type, to rows at, at+1, … of page pg. A string
// cell costs a dictionary probe, unless it repeats the cell before it.
func (b *pagedBackend) put(pg *colPage, c, at int, v *vector, rows []int) {
	at += b.layout.slot[c] * pg.rows
	switch b.layout.types[c] {
	case IntCol:
		for k, r := range rows {
			pg.ints[at+k] = v.ints[r]
		}
	case FloatCol:
		for k, r := range rows {
			pg.floats[at+k] = v.floats[r]
		}
	default:
		d := &b.dicts[b.layout.slot[c]]
		var last string
		var id uint32
		for k, r := range rows {
			if s := v.strs[r]; k == 0 || s != last {
				last, id = s, d.intern(s, b.pageRows)
			}
			pg.ids[at+k] = id
		}
	}
}

// seal moves the open page to store once it is full, encoded straight
// from the vectors, and the next page starts with empty dictionaries. A
// nil store (the memory kind) never seals. Caller holds mu.
func (b *pagedBackend) seal(store pageStore) error {
	if store == nil || b.n < (b.pages+1)*b.pageRows {
		return nil
	}
	v := b.openView(&b.pageSeq, 0)
	if err := store.put(b.pages, binaryCodec{}.encode(&v)); err != nil {
		return fmt.Errorf("kbase: flushing page %d for %s: %w", b.pages, b.schema.Name, err)
	}
	b.pages++
	b.open = nil // readers may still hold the sealed page
	for s := range b.dicts {
		b.dicts[s].reset(b.pageRows)
	}
	return nil
}

// row returns the page holding row i, and i's row there. It panics when i
// is out of range. Caller holds mu.
func (b *pagedBackend) row(i int) (pageView, int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("kbase: %s backend for %s: row %d out of range [0,%d)", b.kind, b.schema.Name, i, b.n))
	}
	if p := i / b.pageRows; p < b.pages {
		return b.load(p), i % b.pageRows
	}
	return b.openView(&b.pageSeq, i/b.pageRows-b.pages), i % b.pageRows
}

// Equal reports whether the row at position i and row r of the checked
// batch bt have the same dedup key, comparing typed cells in place. It
// panics when i is out of range: positions come from the Table's index
// and are trusted.
func (b *pagedBackend) Equal(i int, bt *Batch, r int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, k := b.row(i)
	for c, t := range b.layout.types {
		col := &bt.cols[c]
		switch t {
		case IntCol:
			if v.intAt(c, k) != col.ints[r] {
				return false
			}
		case FloatCol:
			if !floatsEqual(v.floatAt(c, k), col.floats[r]) {
				return false
			}
		default:
			if v.strAt(c, k) != col.strs[r] {
				return false
			}
		}
	}
	return true
}

// snapshot returns what a read may look at: the sequence as it stands,
// with the dictionaries' values up to their current lengths.
func (b *pagedBackend) snapshot() pageSeq {
	dicts := make([]dict, b.layout.width[StringCol]) // allocated before the lock, which readers share
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.pageSeq
	s.dicts = dicts[:copy(dicts, s.dicts)]
	return s
}

// page returns page p of the snapshot s: a sealed one through the LRU.
func (b *pagedBackend) page(s *pageSeq, p int) pageView {
	if p >= s.pages {
		return b.openView(s, p-s.pages)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.load(p)
}

// read is the one page walk behind both read methods, over the snapshot
// s. It numbers the rows matching m in insertion order, calls emit for
// those the window admits until emit returns false, and returns the match
// count (exact unless emit stopped the walk). Every page, sealed or open,
// comes from page and every row is tested in place. With an index plan's
// candidate positions in at there is no walk: each is looked up and
// checked.
func (b *pagedBackend) read(s *pageSeq, at []int, m matcher, w window, emit func(v *pageView, i int) bool) int {
	var v pageView // the page at hand: one per read, as emit's pointer moves it to the heap
	if at != nil {
		for _, pos := range at {
			v = b.page(s, pos/b.pageRows)
			if i := pos % b.pageRows; v.match(m, i) && w.admit() && !emit(&v, i) {
				break
			}
		}
		return w.seen
	}
	pages := s.pages + len(s.open)
	if len(m.preds) == 0 {
		// Every row matches, so match k is row k: start at the page
		// holding the window's first row, and slice the window out of each
		// page directly.
		first := min(w.offset, s.n) / b.pageRows
		w.seen = first * b.pageRows
		for p := first; p < pages; p++ {
			if w.full() {
				return s.n // nothing left to emit, and the count is known
			}
			v = b.page(s, p)
			lo, hi := w.take(v.n)
			for i := lo; i < hi; i++ {
				if !emit(&v, i) {
					return w.seen
				}
			}
		}
		return w.seen
	}
	for p := 0; p < pages; p++ {
		v = b.page(s, p)
		for i := 0; i < v.n; i++ {
			if v.match(m, i) && w.admit() && !emit(&v, i) {
				return w.seen
			}
		}
	}
	return w.seen
}

// Scan and Page are the only read entry points. Both take the conjunction
// Table compiled (never an impossible one; the zero matcher selects every
// row) and number its matches in insertion order. at, when non-nil, lists
// in ascending order the only positions worth considering (an index plan's
// candidates); every one of them is still checked against the conjunction.
//
// Scan streams the matches borrowed until fn returns false: it lends one
// scratch row, filled from the vectors and overwritten by the next match,
// so fn must not retain or modify it.
func (b *pagedBackend) Scan(at []int, m matcher, fn func(Tuple) bool) {
	s, scratch := b.snapshot(), make(Tuple, b.schema.Arity())
	b.read(&s, at, m, window{}, func(v *pageView, i int) bool {
		v.fill(scratch, i)
		return fn(scratch)
	})
}

// Page returns detached rows for the matches numbered [offset,
// offset+limit) (limit <= 0 means "to the end", a negative offset is 0, an
// empty window is nil) plus the exact number of matches: rows stop being
// built once the window fills, but counting runs to the end, except that
// with no predicates the count is Len, so the walk goes straight to the
// offset's page and stops after the window. The rows are cut from one
// cell buffer, each capped to its own cells.
func (b *pagedBackend) Page(at []int, m matcher, offset, limit int) ([]Tuple, int) {
	s, arity, w := b.snapshot(), b.schema.Arity(), newWindow(offset, limit)
	room := min(max(limit, 0), s.n) // a window holds at most limit rows
	if at == nil && len(m.preds) == 0 {
		every := w
		lo, hi := every.take(s.n)
		room = hi - lo // every row matches, so the window is known
	}
	cells := make(Tuple, 0, room*arity)
	rows := 0
	total := b.read(&s, at, m, w, func(v *pageView, i int) bool {
		cells = slices.Grow(cells, arity)[:len(cells)+arity]
		v.fill(cells[rows*arity:], i)
		rows++
		return true
	})
	if rows == 0 {
		return nil, total
	}
	out := make([]Tuple, rows)
	for k := range out {
		out[k] = cells[k*arity : (k+1)*arity : (k+1)*arity]
	}
	return out, total
}

// DeleteWhere removes the rows satisfying pred, which borrows its tuple as
// Scan's callback does, and returns how many it removed. The survivors
// keep their relative order and are re-packed densely (row i is the i-th
// survivor): they stream, through the append path, into a fresh sequence
// — fresh pages, fresh dictionaries, so what was deleted is released, and
// for a kind with a page store a fresh store, one page in memory at a
// time — which is then swapped in. Sealed pages are decoded bypassing the
// LRU, which the swap empties.
func (b *pagedBackend) DeleteWhere(pred func(Tuple) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	rewrite := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("kbase: %s backend for %s: delete rewrite: %v", b.kind, b.schema.Name, err))
		}
	}
	var next pageStore
	if b.store != nil {
		var err error
		next, err = b.store.fresh()
		rewrite(err)
	}
	old := b.pageSeq
	b.pageSeq = b.emptySeq()
	scratch, kept := make(Tuple, b.schema.Arity()), NewBatch(b.schema, b.pageRows)
	all := make([]int, b.pageRows)
	for k := range all {
		all[k] = k
	}
	flush := func() {
		_, err := b.append(kept, all[:kept.Len()], next)
		rewrite(err)
		kept.Reset()
	}
	deleted := 0
	for p := 0; p < old.pages+len(old.open); p++ {
		var v pageView
		if p < old.pages {
			v = b.decodePage(p)
		} else {
			v = b.openView(&old, p-old.pages)
		}
		for i := 0; i < v.n; i++ {
			if v.fill(scratch, i); pred(scratch) {
				deleted++
				continue
			}
			_ = kept.appendTuple(b.schema, scratch) // the row's own cells: always of their columns' types
			if kept.Len() == b.pageRows {
				flush()
			}
		}
	}
	flush()
	if deleted == 0 {
		b.pageSeq = old
		if next != nil {
			_ = next.close() // a leftover empty rewrite area is overwritten by the next one
		}
		return 0
	}
	if next != nil {
		rewrite(b.store.adopt(next))
	}
	b.invalidate()
	return deleted
}

// Snapshot writes the rows (no header) in WriteTSV's row encoding, so a
// table's serialized bytes are the same on every kind holding the same
// rows in the same order. It renders sealed pages from their blobs and
// open pages from their vectors.
func (b *pagedBackend) Snapshot(w io.Writer) error {
	s := b.snapshot()
	for p := 0; p < s.pages; p++ {
		page, err := b.fetch(p)
		if err == nil {
			err = binaryCodec{}.writeTSV(w, &b.layout, page)
		}
		if err != nil {
			return fmt.Errorf("kbase: %s backend for %s: snapshot page %d: %w", b.kind, b.schema.Name, p, err)
		}
	}
	var buf []byte
	for k := range s.open {
		v := b.openView(&s, k)
		for i := 0; i < v.n; i++ {
			buf = append(v.appendTSV(buf[:0], i), '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats reports the decoded-page cache's counters (zero on the memory
// kind).
func (b *pagedBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{CacheHits: b.hits, CacheMisses: b.misses}
}

// Close releases the page store (the spill segment and its descriptor).
// The backend is unusable afterwards.
func (b *pagedBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidate()
	b.pageSeq = pageSeq{}
	if b.store == nil {
		return nil
	}
	return b.store.close()
}
