// Package kbase is a small relational engine playing the role
// PostgreSQL plays in the paper's implementation: it stores the target
// knowledge base (the relations Fonduer populates), with schemas, typed
// columns, set semantics over whole rows, predicates, and set
// operations used by the evaluation (coverage and accuracy against an
// existing knowledge base), and it is the snapshot format of the
// intermediate Candidates/Features/Labels relations.
//
// A Table layers the relational semantics over one Backend, which holds
// its rows as typed pages of column vectors in one of three kinds:
// "memory" keeps every page open, sharing one string dictionary per
// column (the served KB always uses it); "disk" and "columnar" seal each
// page as it fills into a binary column blob — in one append-only segment
// file per table, or on the heap — and have no production user: a
// session store keeps its relations itself and streams its snapshots
// (TSVWriter, TSVReader, WriteSnapshot). TSV is the snapshot format only.
package kbase

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ColType enumerates supported column types.
type ColType int

// Column types.
const (
	StringCol ColType = iota
	IntCol
	FloatCol
)

// String returns the SQL-ish name of the column type.
func (t ColType) String() string {
	switch t {
	case StringCol:
		return "varchar"
	case IntCol:
		return "integer"
	case FloatCol:
		return "float"
	default:
		return fmt.Sprintf("coltype(%d)", int(t))
	}
}

// Column describes one attribute of a relation schema.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a relation: its name and typed columns. This is the
// KB schema S_R(T1, ..., Tn) the user specifies during KBC
// initialization.
type Schema struct {
	Name    string
	Columns []Column
}

// NewSchema constructs a schema. Column specs take the form
// "name:type" with type in {varchar, integer, float}; a bare "name"
// defaults to varchar.
func NewSchema(name string, colSpecs ...string) (Schema, error) {
	if name == "" {
		return Schema{}, fmt.Errorf("kbase: schema needs a name")
	}
	if len(colSpecs) == 0 {
		return Schema{}, fmt.Errorf("kbase: schema %s needs at least one column", name)
	}
	s := Schema{Name: name}
	seen := map[string]bool{}
	for _, spec := range colSpecs {
		parts := strings.SplitN(spec, ":", 2)
		col := Column{Name: parts[0], Type: StringCol}
		if col.Name == "" {
			return Schema{}, fmt.Errorf("kbase: schema %s: empty column name", name)
		}
		if seen[col.Name] {
			return Schema{}, fmt.Errorf("kbase: schema %s: duplicate column %q", name, col.Name)
		}
		seen[col.Name] = true
		if len(parts) == 2 {
			switch parts[1] {
			case "varchar", "text", "":
				col.Type = StringCol
			case "integer", "int":
				col.Type = IntCol
			case "float", "real":
				col.Type = FloatCol
			default:
				return Schema{}, fmt.Errorf("kbase: schema %s: unknown type %q", name, parts[1])
			}
		}
		s.Columns = append(s.Columns, col)
	}
	return s, nil
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// SQL renders the schema as a CREATE TABLE statement (Example 3.2).
func (s Schema) SQL() string {
	lines := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		lines[i] = fmt.Sprintf("    %s %s", c.Name, c.Type)
	}
	return "CREATE TABLE " + s.Name + " (\n" + strings.Join(lines, ",\n") + "\n);"
}

// Tuple is one row of a relation. Values are strings, int64s or
// float64s matching the schema's column types.
type Tuple []any

// Clone returns a copy of the tuple that shares no storage with the
// receiver. Tuple values are immutable scalars (string/int64/float64),
// so copying the slice fully detaches the clone: mutating it can never
// corrupt a table that handed it out.
func (tp Tuple) Clone() Tuple {
	if tp == nil {
		return nil
	}
	out := make(Tuple, len(tp))
	copy(out, tp)
	return out
}

// Table stores the tuples of one relation as a set over whole tuples
// (inserting a duplicate is a no-op, as relation mentions are
// de-duplicated when populating the KB). Row storage is delegated to a
// Backend of one of the storage kinds, while the Table keeps the
// relational semantics: schema/type checking and the dedup index
// (dedup.go: a flat hash -> position table, at most 16 bytes per row and
// invisible to the garbage collector, so set semantics cost bounded
// memory even when the rows themselves live in pages; hash hits are
// verified against the stored row).
type Table struct {
	schema Schema
	be     Backend
	dedup  dedupIndex
	plan   *planner // filtered-read planner (lazy hash indexes)

	// Insert scratch, reused from call to call (a table has one writer):
	// the batch's row hashes, which of its rows were admitted, and the
	// batch InsertAll transposes its tuples into.
	hashes   []uint64
	admitted []int
	scratch  *Batch
}

// NewTable creates an empty in-memory table for the schema.
func NewTable(schema Schema) *Table {
	be, _ := MemoryEngine{}.NewBackend(schema) // never fails
	return newTableWith(schema, be)
}

// newTableWith wraps an empty backend in a table.
func newTableWith(schema Schema, be Backend) *Table {
	return &Table{schema: schema, be: be, plan: newPlanner()}
}

// BackendKind names the table's storage backend.
func (t *Table) BackendKind() string { return t.be.Kind() }

// BackendStats reports the table's paging counters (zero-valued for
// the in-memory backend) merged with the planner's plan-choice
// counters.
func (t *Table) BackendStats() BackendStats {
	bs := t.be.Stats()
	t.plan.mu.Lock()
	bs.IndexHits = t.plan.indexHits
	bs.FullScans = t.plan.fullScans
	t.plan.mu.Unlock()
	return bs
}

// Close releases the table's backend resources (the spill segment and
// its descriptor). The table is unusable afterwards.
func (t *Table) Close() error {
	t.dedup = dedupIndex{}
	t.hashes, t.admitted, t.scratch = nil, nil, nil
	t.plan.invalidate()
	return t.be.Close()
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of stored tuples.
func (t *Table) Len() int { return t.be.Len() }

// find returns the position of the row equal to row r of b, whose hash
// is h, or -1. A slot with the hash's tag is only a candidate: the row is
// compared cell by cell, in place. Positions from first on are rows of b
// itself that the insert in progress has admitted and not yet stored —
// admitted[pos-first] is where in b.
func (t *Table) find(h uint64, b *Batch, r, first int, admitted []int) int {
	d := &t.dedup
	if d.n == 0 {
		return -1
	}
	tag := dedupTag(h)
	for i := d.home(tag); d.slots[i] != 0; {
		if s := d.slots[i]; s>>32 == tag {
			pos := int(uint32(s)) - 1
			if pos >= first {
				if b.equal(admitted[pos-first], r) {
					return pos
				}
			} else if t.be.Equal(pos, b, r) {
				return pos
			}
		}
		if i++; i == len(d.slots) {
			i = 0
		}
	}
	return -1
}

// rebuildIndex rehashes every stored row — the epilogue of any
// positional change (deletes re-pack positions).
func (t *Table) rebuildIndex() {
	t.dedup = dedupIndex{}
	t.dedup.reserve(t.be.Len())
	pos := 0
	t.be.Scan(nil, matcher{}, func(tp Tuple) bool {
		t.dedup.add(hashTuple(tp), pos)
		pos++
		return true
	})
}

// InsertBatch is the one insert path: it adds the batch's rows in order
// and returns how many were newly added. The batch is checked against
// the schema first — a column at a time, and a batch that fails adds
// nothing; then every row is hashed, a column at a time; then each row
// is admitted unless it is a duplicate of a stored row or of an earlier
// row of the batch; then the backend appends the admitted rows, a column
// at a time. The backend stores its own copy, so the batch is the
// caller's again on return, and a batch of duplicates allocates nothing.
// The index grows and the planner is invalidated once. When the backend
// fails to store a row, the rows before it stay inserted and the table
// is as if the batch had ended there.
func (t *Table) InsertBatch(b *Batch) (int, error) {
	if err := b.check(t.schema); err != nil {
		return 0, err
	}
	t.hashes = b.hash(t.hashes)
	first := t.be.Len()
	admitted := t.admitted[:0]
	var err error
	for r, h := range t.hashes {
		if t.find(h, b, r, first, admitted) >= 0 {
			continue
		}
		pos := first + len(admitted)
		if uint64(pos) > maxDedupPos {
			err = fmt.Errorf("kbase: %s: table is full (%d rows)", t.schema.Name, pos)
			break
		}
		if len(admitted) == 0 {
			t.dedup.reserve(len(t.hashes) - r) // the index grows once for the batch
		}
		t.dedup.add(h, pos)
		admitted = append(admitted, r)
	}
	t.admitted = admitted
	if len(admitted) == 0 {
		return 0, err
	}
	stored, appendErr := t.be.Append(b, admitted)
	// The index entries of rows that were not stored come back out, last
	// placed first, which leaves the slots exactly as they were.
	for k := len(admitted) - 1; k >= stored; k-- {
		t.dedup.remove(t.hashes[admitted[k]], first+k)
	}
	if stored > 0 {
		t.plan.invalidate()
	}
	if appendErr != nil {
		err = appendErr
	}
	return stored, err
}

// insertChunkRows is how many tuples InsertAll transposes into one batch
// (and so the size the table's scratch batch grows to).
const insertChunkRows = 1024

// InsertAll adds the tuples in order through InsertBatch, transposing
// them a chunk at a time into a scratch batch the table keeps: arity and
// column types are enforced, ints widen to int64, the tuples are never
// retained. It stops at the first tuple that is rejected or that the
// backend fails to store; the tuples before it stay inserted.
func (t *Table) InsertAll(rows []Tuple) (int, error) {
	if t.scratch == nil {
		t.scratch = NewBatch(t.schema, min(len(rows), insertChunkRows))
	}
	added := 0
	for len(rows) > 0 {
		var bad error
		k := 0
		for k < len(rows) && k < insertChunkRows {
			if bad = t.scratch.appendTuple(t.schema, rows[k]); bad != nil {
				break
			}
			k++
		}
		n, err := t.InsertBatch(t.scratch)
		t.scratch.Reset() // emptied for the next chunk, and so as not to pin the caller's cells
		added += n
		if err == nil {
			err = bad
		}
		if err != nil {
			return added, err
		}
		rows = rows[k:]
	}
	return added, nil
}

// Insert adds one tuple as InsertAll does, reporting whether it was newly
// added.
func (t *Table) Insert(tp Tuple) (bool, error) {
	n, err := t.InsertAll([]Tuple{tp})
	return n == 1, err
}

// probes lends Contains its one-row batch: a read may run beside other
// reads, so it cannot use the table's scratch.
var probes = sync.Pool{New: func() any { return new(Batch) }}

// Contains reports whether a tuple with tp's dedup key is stored. It does
// not type-check: a cell of another type than its column's is looked up
// by its rendering.
func (t *Table) Contains(tp Tuple) bool {
	if len(tp) != t.schema.Arity() {
		return false
	}
	b := probes.Get().(*Batch) // empty: Reset before it was put back
	b.cols = slices.Grow(b.cols[:0], len(tp))[:len(tp)]
	found := true
	for c, v := range tp {
		if found = b.appendProbe(c, t.schema.Columns[c].Type, v); !found {
			break
		}
	}
	found = found && t.find(hashTuple(tp), b, 0, math.MaxInt, nil) >= 0
	b.Reset() // so the pool pins none of the probe's cells
	probes.Put(b)
	return found
}

// Delete removes the exact tuple (after int normalization), reporting
// whether it was present. Deletion re-packs the stored rows, so it is
// O(n). Bulk re-materialization (e.g. a labeling-function edit
// rewriting a Labels column) goes through DeleteWhere, which re-packs
// once for any number of rows.
func (t *Table) Delete(tp Tuple) bool {
	if !t.Contains(tp) {
		return false
	}
	// Set semantics: exactly one stored row equals tp.
	t.DeleteWhere(func(row Tuple) bool { return rowsEqual(row, tp) })
	return true
}

// DeleteWhere removes every tuple satisfying pred, returning how many
// were deleted. Surviving tuples keep their relative insertion order.
func (t *Table) DeleteWhere(pred func(Tuple) bool) int {
	deleted := t.be.DeleteWhere(pred)
	if deleted > 0 {
		t.rebuildIndex()
		t.plan.invalidate()
	}
	return deleted
}

// Scan calls fn for every tuple in insertion order; fn returning false
// stops the scan. The tuple passed to fn is *borrowed*: it is a scratch
// row the next call overwrites, so it is valid for the duration of the
// callback only and must not be retained or modified (clone it with
// Tuple.Clone to keep it). Scan is the one deliberately zero-copy read path; Select,
// Tuples and Page return detached rows.
func (t *Table) Scan(fn func(Tuple) bool) {
	t.be.Scan(nil, matcher{}, fn)
}

// Select returns clones of the tuples satisfying the predicate. The
// result shares no storage with the table: callers (the serving layer
// hands these out to concurrent readers) may hold or modify them
// freely while the table keeps mutating.
func (t *Table) Select(pred func(Tuple) bool) []Tuple {
	var out []Tuple
	t.be.Scan(nil, matcher{}, func(tp Tuple) bool {
		if pred(tp) {
			out = append(out, tp.Clone())
		}
		return true
	})
	return out
}

// Tuples returns a deep copy of the stored tuples: both the outer
// slice and every tuple are cloned, so the result never aliases table
// storage.
func (t *Table) Tuples() []Tuple {
	out := make([]Tuple, 0, t.be.Len())
	t.be.Scan(nil, matcher{}, func(tp Tuple) bool {
		out = append(out, tp.Clone())
		return true
	})
	return out
}

// Page returns clones of up to limit tuples starting at offset (in
// insertion order) — the pagination read path of the serving layer. A
// negative or zero limit means "to the end"; offsets past the end
// return nil.
func (t *Table) Page(offset, limit int) []Tuple {
	rows, _ := t.be.Page(nil, matcher{}, offset, limit)
	return rows
}

// DB is a collection of named tables — the knowledge base. Tables are
// created through the database's storage engine (in-memory unless the
// DB was built with NewDBWith).
type DB struct {
	engine Engine
	tables map[string]*Table
}

// NewDB returns an empty database over the in-memory engine.
func NewDB() *DB { return NewDBWith(MemoryEngine{}) }

// NewDBWith returns an empty database whose tables are created by the
// given storage engine. The database takes ownership of the engine:
// Close closes every table, then the engine.
func NewDBWith(engine Engine) *DB {
	return &DB{engine: engine, tables: map[string]*Table{}}
}

// BackendKind names the database's storage engine.
func (db *DB) BackendKind() string { return db.engine.Kind() }

// Create creates a table for the schema. Creating an existing table is
// an error (the pipeline initializes each KB exactly once).
func (db *DB) Create(schema Schema) (*Table, error) {
	if _, exists := db.tables[schema.Name]; exists {
		return nil, fmt.Errorf("kbase: table %s already exists", schema.Name)
	}
	be, err := db.engine.NewBackend(schema)
	if err != nil {
		return nil, fmt.Errorf("kbase: creating %s backend for %s: %w", db.engine.Kind(), schema.Name, err)
	}
	t := newTableWith(schema, be)
	db.tables[schema.Name] = t
	return t, nil
}

// Close releases every table's backend resources, then the engine's
// (the disk engine removes its spill directory). The database is
// unusable afterwards.
func (db *DB) Close() error {
	var firstErr error
	for _, t := range db.tables {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.tables = map[string]*Table{}
	if err := db.engine.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// DBStats aggregates the paging and query-plan counters of every
// table's backend.
type DBStats struct {
	// Backend is the engine kind (one of BackendKinds).
	Backend string
	// Pages counts sealed pages across all tables (0 on the memory
	// engine).
	Pages int
	// CacheHits / CacheMisses sum the tables' decoded-page cache
	// lookups.
	CacheHits, CacheMisses int64
	// Deprecated: PagesSkipped is always 0: no read skips a page. It is
	// kept only because benchmark/ still reads it; it goes when the next
	// benchmark-archetype PR drops that read (ROADMAP item 3(d)).
	PagesSkipped int64
	// IndexHits / FullScans sum the tables' filtered-read plan
	// choices: answered through a hash index vs scanned.
	IndexHits, FullScans int64
}

// HitRate returns the page-cache hit fraction (0 when no lookups).
func (s DBStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats aggregates the database's backend statistics.
func (db *DB) Stats() DBStats {
	out := DBStats{Backend: db.engine.Kind()}
	for _, t := range db.tables {
		bs := t.BackendStats()
		out.Pages += bs.Pages
		out.CacheHits += bs.CacheHits
		out.CacheMisses += bs.CacheMisses
		out.IndexHits += bs.IndexHits
		out.FullScans += bs.FullScans
	}
	return out
}

// Attach adds an existing table (e.g. one parsed by ReadTSV) to the
// database under its schema name. Attaching over an existing table is
// an error, mirroring Create.
func (db *DB) Attach(t *Table) error {
	name := t.Schema().Name
	if _, exists := db.tables[name]; exists {
		return fmt.Errorf("kbase: table %s already exists", name)
	}
	db.tables[name] = t
	return nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Names returns the sorted table names.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Compare summarizes how table got relates to an existing reference
// table ref with an identical schema, the comparison Table 3 of the
// paper performs against expert-curated knowledge bases:
//
//	Coverage  = |got ∩ ref| / |ref|   (how much of the existing KB we found)
//	NewEntries = |got \ ref|           (entries we found beyond the KB)
type Comparison struct {
	RefEntries int
	GotEntries int
	Overlap    int
	NewEntries int
	Coverage   float64
}

// Compare computes the Table 3 comparison between got and ref.
func Compare(got, ref *Table) Comparison {
	c := Comparison{RefEntries: ref.Len(), GotEntries: got.Len()}
	got.Scan(func(tp Tuple) bool {
		if ref.Contains(tp) {
			c.Overlap++
		} else {
			c.NewEntries++
		}
		return true
	})
	if ref.Len() > 0 {
		c.Coverage = float64(c.Overlap) / float64(ref.Len())
	}
	return c
}
