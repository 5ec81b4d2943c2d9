package core

import (
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/labeling"
	"repro/internal/matchers"
	"repro/internal/parser"
)

// tinySession is a one-relation task with no labeling functions and a
// one-sentence document it extracts a candidate from: enough for the
// in-package tests, which cannot import the synthetic corpora.
func tinySession() (Task, *datamodel.Document) {
	task := Task{
		Relation: "GuardRel",
		Schema:   mustSchema("GuardRel", "part", "current"),
		Args: []candidates.ArgSpec{
			{TypeName: "Part", Matcher: matchers.MustRegex(`SMBT[0-9]{4}`)},
			{TypeName: "Current", Matcher: matchers.NumberRange{Min: 100, Max: 995}},
		},
	}
	return task, parser.ParseHTML("d0", "<html><body><p>SMBT3904 is rated 200 mA.</p></body></html>")
}

// TestStoreMutationGuard pins the writer-goroutine-only contract:
// entering a mutation while another is in flight must panic with a
// message naming the contract, not corrupt the relations. The guard
// is exercised deterministically by holding it open and calling each
// guarded method.
func TestStoreMutationGuard(t *testing.T) {
	task, doc := tinySession()
	st := NewStore(task, Options{Epochs: 1})
	if err := st.AddDocuments(doc); err != nil {
		t.Fatal(err)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s under an in-flight mutation did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "writer-goroutine-only") {
				t.Fatalf("%s panicked with %v, want the concurrency-contract message", name, r)
			}
		}()
		fn()
	}

	lf := labeling.LF{Name: "guard", Fn: func(*candidates.Candidate) int { return 1 }}
	col, err := st.AddLF(lf) // EditLF validates the column before guarding
	if err != nil {
		t.Fatal(err)
	}
	st.beginMutation()
	mustPanic("AddDocuments", func() { _ = st.AddDocuments() })
	mustPanic("AddLF", func() { _, _ = st.AddLF(lf) })
	mustPanic("EditLF", func() { _ = st.EditLF(col, lf) })
	mustPanic("Snapshot", func() { _ = st.Snapshot(t.TempDir()) })
	mustPanic("View", func() { _, _ = st.View(nil) })
	st.endMutation(false)

	// Released: mutations proceed again, and epochs advance only on
	// real changes.
	e := st.Epoch()
	if _, err := st.AddLF(lf); err != nil || st.Epoch() != e+1 {
		t.Fatalf("AddLF did not advance the epoch: %d -> %d", e, st.Epoch())
	}
	if err := st.AddDocuments(); err != nil || st.Epoch() != e+1 {
		t.Fatalf("no-op AddDocuments advanced the epoch (err=%v, epoch %d)", err, st.Epoch())
	}
	if _, err := st.View(nil); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != e+1 {
		t.Fatal("View advanced the epoch")
	}
}
