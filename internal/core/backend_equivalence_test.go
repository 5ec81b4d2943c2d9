package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kbase"
	"repro/internal/synth"
)

// snapshotBytes reads every file of a SaveDB directory: snapshots are
// compared across backends file for file.
func snapshotBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = body
	}
	return out
}

// kbTSV renders a result's predicted tuples as the KB TSV the
// cmd/fonduer -out path writes.
func kbTSV(t *testing.T, task core.Task, res core.Result) []byte {
	t.Helper()
	tbl := kbase.NewTable(task.Schema)
	for _, tup := range res.Predicted {
		row := make(kbase.Tuple, len(tup.Values))
		for i, v := range tup.Values {
			row[i] = v
		}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBackendStoreEquivalence is the cross-backend half of the
// tentpole invariant: over the synth corpus, every storage engine
// kind — pinned explicitly, so the matrix is exercised even when
// $FONDUER_BACKEND (the CI matrix lever) forces a suite-wide default —
// yields (a) a RunSplit Result bit-identical to the in-memory baseline, (b)
// a byte-identical SaveDB snapshot, (c) byte-identical KB TSV output,
// and (d) a resumable snapshot that reproduces the Result again under
// its own backend.
func TestBackendStoreEquivalence(t *testing.T) {
	corpus := synth.Electronics(81, 12)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	type baseline struct {
		res  core.Result
		snap map[string][]byte
		kb   []byte
	}
	var want *baseline
	for _, backend := range kbase.BackendKinds() {
		t.Run(backend, func(t *testing.T) {
			opts := core.Options{Seed: 3, Epochs: 2, Workers: 2, Backend: backend}
			st := core.NewStore(task, opts)
			defer st.Close()
			half := len(corpus.Docs) / 2
			for _, batch := range [][]int{{0, half}, {half, len(corpus.Docs)}} {
				if err := st.AddDocuments(corpus.Docs[batch[0]:batch[1]]...); err != nil {
					t.Fatal(err)
				}
			}
			res, err := st.RunSplit(docNames(train), docNames(test), gold)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "snap")
			if err := st.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			got := &baseline{res: normalizeResult(res), snap: snapshotBytes(t, dir), kb: kbTSV(t, task, res)}
			if got.res.TrainCandidates == 0 || len(got.res.Predicted) == 0 {
				t.Fatalf("degenerate run: %+v", got.res)
			}
			stats := st.StorageStats()
			if stats.Backend != backend {
				t.Fatalf("backend = %q, want %q", stats.Backend, backend)
			}
			if backend != "memory" && stats.DiskPages == 0 {
				t.Fatalf("%s backend built no pages — the corpus should span several", backend)
			}
			if want == nil {
				want = got
				return
			}
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("Result differs from memory baseline\n got: %+v\nwant: %+v", got.res, want.res)
			}
			if !bytes.Equal(got.kb, want.kb) {
				t.Error("KB TSV output differs from memory baseline")
			}
			if len(got.snap) != len(want.snap) {
				t.Fatalf("snapshot file sets differ: %d vs %d files", len(got.snap), len(want.snap))
			}
			for name, body := range want.snap {
				if !bytes.Equal(got.snap[name], body) {
					t.Errorf("snapshot file %s differs from memory baseline", name)
				}
			}

			// The snapshot resumes under the same configuration and
			// reproduces the Result (no re-parse, no re-extract).
			dir2 := t.TempDir()
			snapDir := filepath.Join(dir2, "snap")
			if err := st.Snapshot(snapDir); err != nil {
				t.Fatal(err)
			}
			resumed, err := core.OpenStore(snapDir, task, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			res2, err := resumed.RunSplit(docNames(train), docNames(test), gold)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeResult(res2), want.res) {
				t.Errorf("resumed Result differs from memory baseline")
			}
		})
	}
}

// TestOpenStoreViewReadsNoPages pins OpenStore's contract on the disk
// kind: a resume builds every document once, so nothing reads the
// relations back afterwards — Store.View decodes no page. The ignored
// MaxResidentDocs shim is set on purpose: under the budget it used to
// name, the first View rebuilt all but three documents a second time.
func TestOpenStoreViewReadsNoPages(t *testing.T) {
	corpus := synth.Electronics(83, 12)
	task := corpus.Tasks[0]
	opts := core.Options{Seed: 3, Epochs: 1, Backend: "disk", MaxResidentDocs: 3}
	st := core.NewStore(task, opts)
	defer st.Close()
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	resumed, err := core.OpenStore(dir, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	before := resumed.StorageStats()
	if before.DiskPages == 0 || before.PageCacheMisses == 0 {
		t.Fatalf("resume read no sealed pages, the check below would be vacuous: %+v", before)
	}
	if before.PeakResidentDocs != len(corpus.Docs) {
		t.Fatalf("PeakResidentDocs = %d, want every document (%d)", before.PeakResidentDocs, len(corpus.Docs))
	}
	v, err := resumed.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.KB().Len() == 0 {
		t.Fatal("degenerate view: empty KB")
	}
	if after := resumed.StorageStats(); after.PageCacheMisses != before.PageCacheMisses {
		t.Fatalf("View decoded %d pages after OpenStore, want 0", after.PageCacheMisses-before.PageCacheMisses)
	}
}

// TestMirrorWorkersSnapshotIdentical: AddDocuments inserts an upload's
// relations side by side, one batch each. Inserts into distinct relations
// commute, so the schedule must not show: on every engine kind a session
// fed two documents a call at Workers 1, the same at Workers 4, and one
// fed a document a call at Workers 1 — a relation's batch is then one
// document's rows, as it used to be — snapshot to the same bytes. Run
// under -race.
func TestMirrorWorkersSnapshotIdentical(t *testing.T) {
	corpus := synth.Electronics(83, 10)
	task := corpus.Tasks[0]
	var want map[string][]byte
	for _, backend := range kbase.BackendKinds() {
		for _, feed := range []struct{ workers, perCall int }{{1, 2}, {4, 2}, {1, 1}} {
			st := core.NewStore(task, core.Options{Seed: 3, Workers: feed.workers, Backend: backend})
			for i := 0; i < len(corpus.Docs); i += feed.perCall {
				if err := st.AddDocuments(corpus.Docs[i : i+feed.perCall]...); err != nil {
					t.Fatal(err)
				}
			}
			dir := filepath.Join(t.TempDir(), "snap")
			if err := st.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			st.Close()
			got := snapshotBytes(t, dir)
			if want == nil {
				want = got
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, Workers %d, %d documents a call: the snapshot differs from the first session's", backend, feed.workers, feed.perCall)
			}
		}
	}
	if len(want["features.tsv"]) == 0 {
		t.Fatal("the snapshots hold no features relation")
	}
}
