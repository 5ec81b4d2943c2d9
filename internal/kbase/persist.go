package kbase

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// appendFieldTSV appends one field, escaped for embedding in a TSV line.
// Tabs and newlines are the format's structural characters, so string
// values containing them must be encoded or a row shears apart on read.
// The scheme is the usual minimal one — backslash-escape the backslash
// itself plus the three characters TSV cannot carry raw:
//
//	\  -> \\    tab -> \t    newline -> \n    carriage return -> \r
//
// Every tab-separated field (header and data alike) goes through the
// same escape/unescape pair, so any Go string round-trips. The bytes
// between escapes go in as they are, so a field with nothing to escape
// is one append.
func appendFieldTSV[S string | []byte](dst []byte, s S) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '\\':
			esc = '\\'
		case '\t':
			esc = 't'
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		default:
			continue
		}
		dst = append(append(dst, s[from:i]...), '\\', esc)
		from = i + 1
	}
	return append(dst, s[from:]...)
}

// unescapeTSV decodes a field written by appendFieldTSV.
func unescapeTSV(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("kbase: dangling backslash in TSV field %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 't':
			sb.WriteByte('\t')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		default:
			return "", fmt.Errorf("kbase: unknown escape \\%c in TSV field %q", s[i], s)
		}
	}
	return sb.String(), nil
}

// splitTSV splits a line into unescaped fields.
func splitTSV(line string) ([]string, error) {
	raw := strings.Split(line, "\t")
	out := make([]string, len(raw))
	for i, f := range raw {
		v, err := unescapeTSV(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WriteTSV serializes the table as tab-separated values with a header
// line of "name:type" column specs, so a table round-trips through
// ReadTSV with its schema intact. String values are escaped, so tabs
// and newlines inside values survive the round trip. The row bytes come
// from the backend's Snapshot; w is written in tsvChunk pieces, so it
// need not be buffered.
func (t *Table) WriteTSV(w io.Writer) error {
	tw := NewTSVWriter(w, t.schema)
	if err := t.be.Snapshot(tw.bw); err != nil {
		return err
	}
	return tw.Flush()
}

// tsvChunk is how many rendered bytes a TSVWriter hands its writer at a
// time.
const tsvChunk = 64 << 10

// TSVWriter writes the bytes WriteTSV writes, without a table: the
// header line, then rows a Batch at a time, each cell rendered as a
// backend's Snapshot renders it. Call Flush after the last batch.
type TSVWriter struct {
	bw     *bufio.Writer
	schema Schema
	line   []byte
}

// NewTSVWriter returns the writer of schema's TSV to w, its header line
// buffered.
func NewTSVWriter(w io.Writer, schema Schema) *TSVWriter {
	tw := &TSVWriter{bw: bufio.NewWriterSize(w, tsvChunk), schema: schema}
	tw.line = appendFieldTSV(append(tw.line, '#'), schema.Name)
	for _, c := range schema.Columns {
		tw.line = append(appendFieldTSV(append(tw.line, '\t'), c.Name), ':')
		tw.line = append(tw.line, c.Type.String()...)
	}
	_, _ = tw.bw.Write(append(tw.line, '\n')) // a bufio error is sticky: WriteBatch or Flush returns it
	return tw
}

// WriteBatch writes b's rows, in order. b must be of the writer's schema.
func (tw *TSVWriter) WriteBatch(b *Batch) error {
	err := b.check(tw.schema)
	for r := 0; r < b.Len() && err == nil; r++ {
		tw.line = append(b.appendTSV(tw.line[:0], r), '\n')
		_, err = tw.bw.Write(tw.line)
	}
	return err
}

// Flush writes out what the writer still buffers.
func (tw *TSVWriter) Flush() error { return tw.bw.Flush() }

// readLine reads one newline-terminated line of unbounded length,
// returning io.EOF only when no bytes remain. Unlike bufio.Scanner
// there is no line-length cap: a single huge value cannot fail the
// read.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line != "" {
		err = nil // final line without trailing newline
	}
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r") // tolerate CRLF input
	return line, err
}

// TSVReader reads a TSV that WriteTSV or a TSVWriter wrote, without a
// table: the header line's schema, then batches of up to readChunkRows
// rows, each field parsed straight into its column's vector.
type TSVReader struct {
	br     *bufio.Reader
	schema Schema
	batch  *Batch
	line   int // lines read, the header included
}

// NewTSVReader reads the header line of r and returns the reader of its
// rows.
func NewTSVReader(r io.Reader) (*TSVReader, error) {
	br := bufio.NewReader(r)
	header, err := readLine(br)
	if err == io.EOF {
		return nil, fmt.Errorf("kbase: empty TSV input")
	}
	if err != nil {
		return nil, fmt.Errorf("kbase: reading TSV header: %w", err)
	}
	if !strings.HasPrefix(header, "#") {
		return nil, fmt.Errorf("kbase: TSV header must start with '#', got %q", header)
	}
	fields, err := splitTSV(header[1:])
	if err != nil {
		return nil, err
	}
	if len(fields) < 2 {
		return nil, fmt.Errorf("kbase: malformed TSV header %q", header)
	}
	specs := make([]string, 0, len(fields)-1)
	for _, f := range fields[1:] {
		// Normalize "col:varchar" etc. back into NewSchema's grammar.
		specs = append(specs, strings.Replace(f, ":varchar", "", 1))
	}
	schema, err := NewSchema(fields[0], specs...)
	if err != nil {
		return nil, err
	}
	return &TSVReader{br: br, schema: schema, batch: NewBatch(schema, readChunkRows), line: 1}, nil
}

// Schema returns the schema the header declares.
func (tr *TSVReader) Schema() Schema { return tr.schema }

// Next returns the next rows, up to readChunkRows of them, in a batch the
// reader reuses: the next call overwrites it. After the last row it
// returns io.EOF.
func (tr *TSVReader) Next() (*Batch, error) {
	b := tr.batch
	b.Reset()
	for b.Len() < readChunkRows {
		line, err := readLine(tr.br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("kbase: reading TSV: %w", err)
		}
		tr.line++
		// With escaping every line is a row, "" (one empty string) too.
		parts, err := splitTSV(line)
		if err == nil {
			err = b.appendFields(tr.schema, parts)
		}
		if err != nil {
			return nil, fmt.Errorf("kbase: TSV line %d: %v", tr.line, err)
		}
	}
	if b.Len() == 0 {
		return nil, io.EOF
	}
	return b, nil
}

// ReadTSV parses a table previously written by WriteTSV, rebuilding
// the schema from the header line and type-converting every value.
// The table is in-memory; ReadTSVWith restores into another engine.
func ReadTSV(r io.Reader) (*Table, error) {
	return ReadTSVWith(r, memoryEngine)
}

// ReadTSVWith is ReadTSV with the rows stored through the given engine,
// a TSVReader batch at a time.
func ReadTSVWith(r io.Reader, engine *Engine) (*Table, error) {
	tr, err := NewTSVReader(r)
	if err != nil {
		return nil, err
	}
	t := newTableWith(tr.schema, engine.newBackend(tr.schema))
	for {
		b, err := tr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err == nil {
			if _, err = t.InsertBatch(b); err != nil {
				err = fmt.Errorf("kbase: TSV lines %d-%d: %w", tr.line-b.Len()+1, tr.line, err)
			}
		}
		if err != nil {
			t.Close() // a disk backend holds its segment open
			return nil, err
		}
	}
}

// readChunkRows is how many parsed rows a TSVReader batch holds.
const readChunkRows = 1024

// manifestName is the snapshot directory's table-of-contents file. It
// pins the table set, so stray files in the directory are ignored and
// a truncated snapshot is detected as a missing table file.
const manifestName = "MANIFEST"

// SaveDB snapshots a whole database into a directory: one
// "<table>.tsv" file per relation, its table's WriteTSV, plus a MANIFEST
// listing the tables (WriteSnapshot).
func SaveDB(db *DB, dir string) error {
	return WriteSnapshot(dir, db.Names(), func(name string, w io.Writer) error {
		return db.Table(name).WriteTSV(w)
	})
}

// WriteSnapshot is the one snapshot-directory writer: write(name, w)
// writes table name's TSV, for each of names in turn, and a MANIFEST
// lists them. The snapshot is written into a fresh temporary sibling
// directory and swapped into place, so a crash or disk-full mid-save can
// never leave a MANIFEST pointing at a mix of old and new table files —
// dir either keeps the previous consistent snapshot (up to the final
// rename pair) or holds the new one.
func WriteSnapshot(dir string, names []string, write func(name string, w io.Writer) error) error {
	for _, name := range names {
		if !safeTableFile(name) {
			return fmt.Errorf("kbase: table name %q is not snapshot-safe", name)
		}
	}
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, filepath.Base(dir)+".tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // no-op after the successful rename
	for _, name := range names {
		f, err := os.Create(filepath.Join(tmp, name+".tsv"))
		if err != nil {
			return err
		}
		if err := write(name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	// Swap: retire any existing snapshot, move the new one in. Only a
	// prior snapshot (or an empty directory) is ever displaced —
	// overwriting an arbitrary path would destroy user data — and the
	// refusal comes before anything, dir.old included, is removed.
	fi, err := os.Stat(dir)
	exists := err == nil
	if exists && !IsSnapshot(dir) {
		if !fi.IsDir() || os.Remove(dir) != nil { // Remove succeeds only when empty
			return fmt.Errorf("kbase: refusing to overwrite %s: not a snapshot directory", dir)
		}
		exists = false
	}
	old := dir + ".old"
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if exists {
		if err := os.Rename(dir, old); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

// LoadDB restores a database from a SaveDB directory into memory.
func LoadDB(dir string) (*DB, error) {
	return LoadDBWith(dir, memoryEngine)
}

// LoadDBWith restores a database from a SaveDB directory through the
// given storage engine. The database takes ownership of the engine.
// On error the partially built database is closed, so a failed
// disk-backed load leaks no spill files.
func LoadDBWith(dir string, engine *Engine) (*DB, error) {
	body, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("kbase: reading snapshot manifest: %w", err)
	}
	db := NewDBWith(engine)
	fail := func(err error) (*DB, error) {
		db.Close()
		return nil, err
	}
	for _, name := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !safeTableFile(name) {
			return fail(fmt.Errorf("kbase: manifest table name %q is not snapshot-safe", name))
		}
		f, err := os.Open(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return fail(err)
		}
		t, err := ReadTSVWith(f, engine)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("kbase: table %s: %w", name, err))
		}
		if t.Schema().Name != name {
			t.Close()
			return fail(fmt.Errorf("kbase: snapshot file %s.tsv holds table %q", name, t.Schema().Name))
		}
		if err := db.Attach(t); err != nil {
			t.Close()
			return fail(err)
		}
	}
	return db, nil
}

// IsSnapshot reports whether dir looks like a SaveDB snapshot (it has
// a manifest).
func IsSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// safeTableFile accepts table names that map to a plain file inside
// the snapshot directory.
func safeTableFile(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\\n\t")
}

// EqualDB reports whether two databases hold the same relations with
// the same tuple sets (insertion order is ignored — relations have set
// semantics).
func EqualDB(a, b *DB) bool {
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		return false
	}
	sort.Strings(an)
	for i, name := range an {
		if bn[i] != name {
			return false
		}
		ta, tb := a.Table(name), b.Table(name)
		if ta.Len() != tb.Len() {
			return false
		}
		cmp := Compare(ta, tb)
		if cmp.NewEntries != 0 || cmp.Overlap != ta.Len() {
			return false
		}
	}
	return true
}
