package kbase

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// adversarialStrings are the values the pre-escaping TSV writer
// corrupted: structural characters, escape collisions, empties,
// unicode.
var adversarialStrings = []string{
	"",
	" ",
	"\t",
	"\n",
	"\r",
	"\r\n",
	"\\",
	"\\t",
	"\\n",
	`\\`,
	"a\tb",
	"multi\nline\nvalue",
	"trailing\t",
	"\tleading",
	"ends with backslash\\",
	"héllo\t世界",
	"#looks\tlike\na header",
	"mixed \\ \t \n \r soup\\r",
}

func tsvRoundTrip(t *testing.T, tbl *Table) *Table {
	t.Helper()
	var sb strings.Builder
	if err := tbl.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadTSV: %v (serialized: %q)", err, sb.String())
	}
	return got
}

// TestTSVRoundTripAdversarial checks that string values containing
// tabs, newlines and backslashes survive WriteTSV -> ReadTSV exactly
// instead of shearing the row.
func TestTSVRoundTripAdversarial(t *testing.T) {
	s, err := NewSchema("adversarial", "a", "b", "n:int")
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s)
	for i, a := range adversarialStrings {
		for j, b := range adversarialStrings {
			if _, err := tbl.Insert(Tuple{a, b, int64(i*100 + j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := tsvRoundTrip(t, tbl)
	if !reflect.DeepEqual(got.Tuples(), tbl.Tuples()) {
		t.Fatal("adversarial tuples did not round-trip")
	}
}

// TestTSVRoundTripProperty fuzzes random tuples (drawn from an
// alphabet heavy in structural characters) through the TSV round trip
// and requires exact tuple and schema equality.
func TestTSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune{'a', 'b', '\t', '\n', '\r', '\\', 't', 'n', ' ', '#', ':', 'ß', '日'}
	randString := func() string {
		n := rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for trial := 0; trial < 50; trial++ {
		s, err := NewSchema("prop", "s1", "s2", "i:integer", "f:float")
		if err != nil {
			t.Fatal(err)
		}
		tbl := NewTable(s)
		for r := 0; r < 20; r++ {
			tp := Tuple{randString(), randString(), int64(rng.Intn(1000) - 500), rng.NormFloat64()}
			if _, err := tbl.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		got := tsvRoundTrip(t, tbl)
		if !reflect.DeepEqual(got.Tuples(), tbl.Tuples()) {
			t.Fatalf("trial %d: tuples did not round-trip", trial)
		}
		if !reflect.DeepEqual(got.Schema(), tbl.Schema()) {
			t.Fatalf("trial %d: schema did not round-trip", trial)
		}
	}
}

// TestTSVLongLine verifies the reader has no line-length cap: a value
// well past the old 1 MiB bufio.Scanner buffer round-trips.
func TestTSVLongLine(t *testing.T) {
	s, err := NewSchema("long", "v")
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s)
	huge := strings.Repeat("x", 2<<20) // 2 MiB, over the old cap
	if _, err := tbl.Insert(Tuple{huge}); err != nil {
		t.Fatal(err)
	}
	got := tsvRoundTrip(t, tbl)
	if got.Len() != 1 || got.Tuples()[0][0].(string) != huge {
		t.Fatal("2 MiB value did not round-trip")
	}
}

func TestUnescapeErrors(t *testing.T) {
	for _, bad := range []string{`dangling\`, `unknown\q`} {
		if _, err := unescapeTSV(bad); err == nil {
			t.Errorf("unescapeTSV(%q) should error", bad)
		}
	}
}

func TestTableDelete(t *testing.T) {
	s, err := NewSchema("d", "k", "v:int")
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s)
	for i := 0; i < 5; i++ {
		if _, err := tbl.Insert(Tuple{string(rune('a' + i)), i}); err != nil {
			t.Fatal(err)
		}
	}
	if !deleteTuple(tbl, Tuple{"c", 2}) {
		t.Fatal("delete existing")
	}
	if deleteTuple(tbl, Tuple{"c", 2}) {
		t.Fatal("double delete")
	}
	if tbl.Len() != 4 || tbl.Contains(Tuple{"c", 2}) {
		t.Fatalf("len = %d", tbl.Len())
	}
	// Index stays consistent after the re-pack.
	if !tbl.Contains(Tuple{"e", 4}) || !tbl.Contains(Tuple{"a", 0}) {
		t.Fatal("index corrupted by delete")
	}
	if _, err := tbl.Insert(Tuple{"c", 2}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.DeleteWhere(func(tp Tuple) bool { return tp[1].(int64) >= 2 }); n != 3 {
		t.Fatalf("DeleteWhere = %d", n)
	}
	if tbl.Len() != 2 || tbl.Contains(Tuple{"c", 2}) {
		t.Fatalf("after DeleteWhere len = %d", tbl.Len())
	}
	if n := tbl.DeleteWhere(func(Tuple) bool { return false }); n != 0 {
		t.Fatalf("no-op DeleteWhere = %d", n)
	}
}

// TestDBSnapshotRestore exercises the whole-database snapshot: build a
// DB with adversarial values across several typed tables, SaveDB,
// LoadDB, and require table-by-table set equality via Compare.
func TestDBSnapshotRestore(t *testing.T) {
	db := NewDB()
	s1, _ := NewSchema("rel_a", "name", "score:float")
	s2, _ := NewSchema("rel_b", "doc", "pos:int", "words")
	s3, _ := NewSchema("rel_empty", "x")
	t1, _ := db.Create(s1)
	t2, _ := db.Create(s2)
	if _, err := db.Create(s3); err != nil {
		t.Fatal(err)
	}
	for i, v := range adversarialStrings {
		if _, err := t1.Insert(Tuple{v, float64(i) / 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := t2.Insert(Tuple{"doc\t1", i, v + "\n" + v}); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := SaveDB(db, dir); err != nil {
		t.Fatal(err)
	}
	if !IsSnapshot(dir) {
		t.Fatal("IsSnapshot must see the manifest")
	}
	got, err := LoadDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Names(), db.Names()) {
		t.Fatalf("names = %v, want %v", got.Names(), db.Names())
	}
	for _, name := range db.Names() {
		cmp := Compare(got.Table(name), db.Table(name))
		if cmp.NewEntries != 0 || cmp.Overlap != db.Table(name).Len() || got.Table(name).Len() != db.Table(name).Len() {
			t.Fatalf("table %s: restore mismatch %+v", name, cmp)
		}
	}
	if !EqualDB(db, got) {
		t.Fatal("EqualDB must hold after restore")
	}
	// A second snapshot from the restored DB is byte-compatible at the
	// relation level too.
	dir2 := filepath.Join(t.TempDir(), "snap2")
	if err := SaveDB(got, dir2); err != nil {
		t.Fatal(err)
	}
	again, err := LoadDB(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualDB(db, again) {
		t.Fatal("snapshot -> restore -> snapshot -> restore drifted")
	}
}

// TestTSVEmptyRows: rows made entirely of empty strings produce lines
// of bare tabs (or, single-column, an empty line) and must survive the
// round trip — the old blank-line skip silently dropped them.
func TestTSVEmptyRows(t *testing.T) {
	s1, _ := NewSchema("one", "v")
	tbl1 := NewTable(s1)
	for _, v := range []string{"", "x", " "} {
		if _, err := tbl1.Insert(Tuple{v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tsvRoundTrip(t, tbl1); !reflect.DeepEqual(got.Tuples(), tbl1.Tuples()) {
		t.Fatalf("single-column empty rows lost: %d of %d", got.Len(), tbl1.Len())
	}

	s2, _ := NewSchema("two", "a", "b")
	tbl2 := NewTable(s2)
	if _, err := tbl2.Insert(Tuple{"", ""}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl2.Insert(Tuple{" ", "\t"}); err != nil {
		t.Fatal(err)
	}
	if got := tsvRoundTrip(t, tbl2); !reflect.DeepEqual(got.Tuples(), tbl2.Tuples()) {
		t.Fatalf("all-empty rows lost: %d of %d", got.Len(), tbl2.Len())
	}
}

// TestSaveDBRefusesNonSnapshot: the atomic swap must never displace a
// pre-existing directory that is not a snapshot (user data), and a
// refused save removes nothing: the directory and its ".old" sibling
// stay byte for byte as they were, and a regular file at the target is
// refused, not deleted. An empty directory is fine.
func TestSaveDBRefusesNonSnapshot(t *testing.T) {
	db := NewDB()
	s, _ := NewSchema("r", "x")
	if _, err := db.Create(s); err != nil {
		t.Fatal(err)
	}
	tree := func(root string) map[string]string {
		t.Helper()
		out := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			body, err := os.ReadFile(path)
			out[path] = string(body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	dir := filepath.Join(t.TempDir(), "target")
	for path, body := range map[string]string{
		filepath.Join(dir, "precious.txt"):           "keep me",
		filepath.Join(dir+".old", "keep.txt"):        "and me",
		filepath.Join(dir+".old", "sub", "more.txt"): "and me too",
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, beforeOld := tree(dir), tree(dir+".old")
	if err := SaveDB(db, dir); err == nil || !strings.Contains(err.Error(), "not a snapshot directory") {
		t.Fatalf("SaveDB over a non-snapshot directory = %v, want a refusal", err)
	}
	if got := tree(dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("non-snapshot content changed: %v, want %v", got, before)
	}
	if got := tree(dir + ".old"); !reflect.DeepEqual(got, beforeOld) {
		t.Fatalf("the refused save changed %s.old: %v, want %v", dir, got, beforeOld)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveDB(db, file); err == nil {
		t.Fatal("SaveDB over a regular file must refuse")
	}
	if body, err := os.ReadFile(file); err != nil || string(body) != "data" {
		t.Fatalf("the refused file is now %q, %v", body, err)
	}
	// An empty pre-existing directory is fine.
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveDB(db, empty); err != nil {
		t.Fatalf("empty target dir must be usable: %v", err)
	}
	if !IsSnapshot(empty) {
		t.Fatal("snapshot not written")
	}
}

// TestSaveDBOverwrite re-snapshots into an existing directory and
// checks the swap is clean: the new content is loadable, and neither
// the temp dir nor the retired ".old" copy survives.
func TestSaveDBOverwrite(t *testing.T) {
	db := NewDB()
	s, _ := NewSchema("r", "k", "v:int")
	tbl, _ := db.Create(s)
	if _, err := tbl.Insert(Tuple{"a", 1}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := SaveDB(db, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Tuple{"b", 2}); err != nil {
		t.Fatal(err)
	}
	if err := SaveDB(db, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table("r").Len() != 2 {
		t.Fatalf("overwritten snapshot has %d rows", got.Table("r").Len())
	}
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap" {
			t.Fatalf("stray snapshot artifact %q left behind", e.Name())
		}
	}
}

func TestLoadDBErrors(t *testing.T) {
	if _, err := LoadDB(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing manifest must error")
	}
	if err := SaveDB(func() *DB {
		db := NewDB()
		s, _ := NewSchema("bad/name", "x")
		_, _ = db.Create(s)
		return db
	}(), t.TempDir()); err == nil {
		t.Fatal("unsafe table name must error")
	}
}
