package kbase

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestTSVRoundTrip(t *testing.T) {
	s, err := NewSchema("HasCollectorCurrent", "part", "ma:int", "score:float")
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s)
	rows := []Tuple{
		{"SMBT3904", int64(200), 0.97},
		{"BC337", int64(800), 0.91},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := tbl.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Name != "HasCollectorCurrent" || got.Schema().Arity() != 3 {
		t.Fatalf("schema = %+v", got.Schema())
	}
	if got.Schema().Columns[1].Type != IntCol || got.Schema().Columns[2].Type != FloatCol {
		t.Fatalf("column types = %+v", got.Schema().Columns)
	}
	if got.Len() != 2 {
		t.Fatalf("len = %d", got.Len())
	}
	for _, r := range rows {
		if !got.Contains(r) {
			t.Fatalf("missing tuple %v", r)
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	bad := []string{
		"",                            // empty
		"no-hash\tpart\n",             // missing '#'
		"#r\n",                        // no columns
		"#r\ta\tb\nx\n",               // arity mismatch
		"#r\tn:integer\nnotanumber\n", // bad int
		"#r\tf:float\nnotafloat\n",    // bad float
	}
	for _, src := range bad {
		if _, err := ReadTSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadTSV(%q) should error", src)
		}
	}
}

// TestLoadDBFailureClosesSegment: a disk-backed load that fails partway
// through a table — here at TSV line 3002, after two chunks of rows went
// in and sealed pages to the table's segment — closes that table, so no
// descriptor stays open on its segment once the engine has removed it.
func TestLoadDBFailureClosesSegment(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc to read descriptors from: %v", err)
	}
	snap, spill := t.TempDir(), t.TempDir()
	var sb strings.Builder
	sb.WriteString("#t\tx:integer\n")
	for i := 0; i < 3000; i++ {
		sb.WriteString(strconv.Itoa(i) + "\n")
	}
	sb.WriteString("notanumber\n")
	if err := os.WriteFile(filepath.Join(snap, "t.tsv"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snap, manifestName), []byte("t\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	engine, err := NewDiskEngine(spill, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDBWith(snap, engine); err == nil || !strings.Contains(err.Error(), "line 3002") {
		t.Fatalf("LoadDBWith = %v, want an error at TSV line 3002", err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, spill) {
			t.Errorf("the failed load left descriptor %s open on %s", fd.Name(), target)
		}
	}
}

// TestTSVWriterMatchesWriteTSV: a TSVWriter fed batches writes the bytes
// WriteTSV writes for a table of the same rows — escaping-sensitive
// strings, extreme integers, signed zero and NaN included — and a
// TSVReader reads them back, cell for cell.
func TestTSVWriterMatchesWriteTSV(t *testing.T) {
	schema, err := NewSchema("fz", "a", "b", "n:integer", "f:float")
	if err != nil {
		t.Fatal(err)
	}
	rows := []Tuple{
		{"", "", int64(0), 0.0},
		{"plain", "p\x0007", int64(-1), 1.5},
		{"tab\there", "line\nbreak\rand\\slash", int64(math.MinInt64), math.Copysign(0, -1)},
		{"unicode ✓", "\xff\xfe invalid utf8", int64(math.MaxInt64), 1e21},
		{"nan", "inf", int64(42), math.NaN()},
	}
	tbl := NewTable(schema)
	b := NewBatch(schema, 2)
	var streamed bytes.Buffer
	tw := NewTSVWriter(&streamed, schema)
	for i, tp := range rows {
		if _, err := tbl.Insert(tp); err != nil {
			t.Fatal(err)
		}
		if err := b.appendTuple(schema, tp); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 2 || i == len(rows)-1 {
			if err := tw.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tbl.WriteTSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatalf("TSVWriter wrote\n%q\nWriteTSV writes\n%q", streamed.Bytes(), want.Bytes())
	}

	tr, err := NewTSVReader(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Schema(); got.Name != schema.Name || !slices.Equal(got.Columns, schema.Columns) {
		t.Fatalf("header schema = %+v, want %+v", got, schema)
	}
	read := 0
	for {
		b, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < b.Len(); r++ {
			tp := rows[read]
			if b.Str(0, r) != tp[0] || b.Str(1, r) != tp[1] || b.Int(2, r) != tp[2] || !floatEq(b.cols[3].floats[r], tp[3].(float64)) {
				t.Fatalf("row %d read back as %q %q %d %v, want %v", read, b.Str(0, r), b.Str(1, r), b.Int(2, r), b.cols[3].floats[r], tp)
			}
			read++
		}
	}
	if read != len(rows) || tr.line != len(rows)+1 {
		t.Fatalf("read %d rows through line %d, want %d rows", read, tr.line, len(rows))
	}
}
