package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kbase"
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
	rewrite := func(file string, edit func(string) string) {
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
	rewrite("meta.tsv", func(s string) string {
		if !strings.Contains(s, "\nformat\t3\n") {
			t.Fatalf("meta.tsv has no format 3 row:\n%s", s)
		}
		return strings.Replace(s, "\nformat\t3\n", "\nformat\t2\n", 1)
	})
	rewrite("documents.tsv", func(s string) string { // (pos, name, format)
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

// TestStoreSchemaKeys pins each persisted relation's key. The key is a
// declaration, not data — snapshots carry no trace of it, so it is not
// part of the format — but it is what OpenStore relies on to refuse a
// repeated row, and what spares mirror's ascending relations an index.
func TestStoreSchemaKeys(t *testing.T) {
	want := map[string]kbase.Key{
		tblDocuments: {Cols: 1, Ascending: true}, // (pos)
		tblSentences: {Cols: 2},                  // (doc, pos): doc is a name, not in row order
		tblCands:     {Cols: 2, Ascending: true}, // (cand, arg)
		tblFeatures:  {Cols: 2, Ascending: true}, // (cand, seq)
		tblLabels:    {Cols: 2},                  // (cand, lf): AddLF appends a column
		tblMeta:      {Cols: 1},                  // (key)
	}
	for _, s := range storeSchemas {
		if s.Key != want[s.Name] {
			t.Errorf("%s declares key %+v, want %+v", s.Name, s.Key, want[s.Name])
		}
		delete(want, s.Name)
	}
	if len(want) != 0 {
		t.Errorf("no schema for %v", want)
	}
}
