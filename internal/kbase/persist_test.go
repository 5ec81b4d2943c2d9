package kbase

import (
	"os"
	"path/filepath"
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
