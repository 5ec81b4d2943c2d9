package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The persisted relations of snapshot format schemaFormat. A snapshot is
// read back by column position, so a relation that gains, loses,
// renames, retypes or reorders a column is a new format.
const (
	schemaFormat = "3"
	schemaGolden = `documents(pos:integer, name:varchar, format:varchar, hits:integer, misses:integer)
sentences(doc:varchar, pos:integer, words:varchar, lemmas:varchar, pos_tags:varchar, ner:varchar, htmltag:varchar, attrs:varchar, ancestor_tags:varchar, ancestor_classes:varchar, ancestor_ids:varchar, nodepos:integer, prevsib:varchar, nextsib:varchar, pages:varchar, boxes:varchar, font:varchar, tbl:integer, row_start:integer, row_end:integer, col_start:integer, col_end:integer, header:integer)
candidates(cand:integer, arg:integer, type:varchar, doc:varchar, sent:integer, start:integer, end:integer)
features(cand:integer, seq:integer, feature:varchar)
labels(cand:integer, lf:integer, vote:integer)
meta(key:varchar, value:varchar)
`
)

// TestStoreSchemasMatchFormat is the tripwire between the persisted
// relations and storeFormat: changing a relation without bumping the
// format fails here, and so does bumping the format without recording
// its relations. A snapshot of the previous format — its meta says
// format 2 and its documents relation lacks the cache-statistics
// columns — is refused with an error naming the format, before any
// relation is read by position.
func TestStoreSchemasMatchFormat(t *testing.T) {
	var sb strings.Builder
	for _, s := range storeSchemas {
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = c.Name + ":" + c.Type.String()
		}
		sb.WriteString(s.Name + "(" + strings.Join(cols, ", ") + ")\n")
	}
	if storeFormat != schemaFormat {
		t.Fatalf("storeFormat is %q but the golden relations are format %q: record the new format's relations here", storeFormat, schemaFormat)
	}
	if got := sb.String(); got != schemaGolden {
		t.Fatalf("the persisted relations changed without a storeFormat bump:\n got:\n%s\nwant (format %s):\n%s", got, schemaFormat, schemaGolden)
	}

	task, doc := tinySession()
	st := NewStore(task, Options{Epochs: 1})
	defer st.Close()
	if err := st.AddDocuments(doc); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	rewriteSnapshotFile(t, dir, "meta.tsv", func(s string) string {
		if !strings.Contains(s, "\nformat\t3\n") {
			t.Fatalf("meta.tsv has no format 3 row:\n%s", s)
		}
		return strings.Replace(s, "\nformat\t3\n", "\nformat\t2\n", 1)
	})
	rewriteSnapshotFile(t, dir, "documents.tsv", func(s string) string { // (pos, name, format)
		lines := strings.SplitAfter(s, "\n")
		for i, l := range lines[:len(lines)-1] {
			f := strings.Split(strings.TrimSuffix(l, "\n"), "\t")
			lines[i] = strings.Join(f[:len(f)-2], "\t") + "\n"
		}
		return strings.Join(lines, "")
	})
	resumed, err := OpenStore(dir, task, Options{Epochs: 1})
	if err == nil {
		resumed.Close()
		t.Fatal("a format-2 snapshot was resumed")
	}
	if !strings.Contains(err.Error(), `format="2"`) {
		t.Fatalf("OpenStore of a format-2 snapshot = %v, want an error naming the format", err)
	}
}

// rewriteSnapshotFile replaces a snapshot file's contents with edit's
// result.
func rewriteSnapshotFile(t *testing.T, dir, file string, edit func(string) string) {
	t.Helper()
	path := filepath.Join(dir, file)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(edit(string(body))), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreIgnoresRetiredMetaRow: format-3 snapshots written while
// the mention cache could be switched off carry a "no_feature_cache
// false" meta row that the session no longer writes. Resume compares
// only the session's own configuration keys, so such a snapshot still
// resumes, at format 3, to the same store.
func TestOpenStoreIgnoresRetiredMetaRow(t *testing.T) {
	task, doc := tinySession()
	st := NewStore(task, Options{Epochs: 1})
	defer st.Close()
	if err := st.AddDocuments(doc); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	rewriteSnapshotFile(t, dir, "meta.tsv", func(s string) string {
		if strings.Contains(s, "no_feature_cache") || !strings.Contains(s, "\nno_throttlers\t") {
			t.Fatalf("meta.tsv is not the current row set:\n%s", s)
		}
		// Rows are in key order, as an older snapshot wrote them.
		return strings.Replace(s, "\nno_throttlers\t", "\nno_feature_cache\tfalse\nno_throttlers\t", 1)
	})
	resumed, err := OpenStore(dir, task, Options{Epochs: 1})
	if err != nil {
		t.Fatalf("a snapshot with a no_feature_cache row does not resume: %v", err)
	}
	defer resumed.Close()
	again := filepath.Join(t.TempDir(), "again")
	if err := resumed.Snapshot(again); err != nil {
		t.Fatal(err)
	}
	for _, schema := range storeSchemas {
		if schema.Name == tblMeta {
			continue
		}
		a, errA := os.ReadFile(filepath.Join(dir, schema.Name+".tsv"))
		b, errB := os.ReadFile(filepath.Join(again, schema.Name+".tsv"))
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Fatalf("%s differs after resuming the older snapshot (%v, %v)", schema.Name, errA, errB)
		}
	}
}
