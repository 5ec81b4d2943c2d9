package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/synth"
)

// storageConfigs enumerates the storage engine × eviction grid the
// pluggable-backend invariant quantifies over. Backends are pinned
// explicitly so the matrix is exercised even when $FONDUER_BACKEND
// (the CI matrix lever) forces a suite-wide default.
var storageConfigs = []struct {
	name        string
	backend     string
	maxResident int
}{
	{"memory", "memory", 0},
	{"disk", "disk", 0},
	{"columnar", "columnar", 0},
	{"memory-evict", "memory", 3},
	{"disk-evict", "disk", 3},
	{"columnar-evict", "columnar", 3},
}

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
// tentpole invariant: over the synth corpus, every storage
// configuration — in-memory or disk-paged backend, with or without a
// parsed-document eviction budget far below the corpus size — yields
// (a) a RunSplit Result bit-identical to the in-memory baseline, (b)
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
	for _, cfg := range storageConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := core.Options{Seed: 3, Epochs: 2, Workers: 2, Backend: cfg.backend, MaxResidentDocs: cfg.maxResident}
			st := core.NewStore(task, opts)
			defer st.Close()
			// Two-batch ingestion: eviction kicks in between batches.
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
			if stats.Backend != cfg.backend {
				t.Fatalf("backend = %q, want %q", stats.Backend, cfg.backend)
			}
			if cfg.maxResident > 0 && stats.PeakResidentDocs > cfg.maxResident {
				t.Fatalf("peak resident docs %d exceeds budget %d", stats.PeakResidentDocs, cfg.maxResident)
			}
			if (cfg.backend == "disk" || cfg.backend == "columnar") && stats.DiskPages == 0 {
				t.Fatalf("%s backend built no pages — the corpus should span several", cfg.backend)
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

// TestEvictionLFFidelity extends the resume-fidelity invariant to the
// eviction path: applying labeling functions to a store whose
// documents have been evicted and rehydrated (including structural,
// tabular and visual LFs) produces exactly the votes of a fully
// resident session.
func TestEvictionLFFidelity(t *testing.T) {
	// The last document has row- and column-spanning table cells.
	corpus := withSpanningDoc(synth.Electronics(82, 8))
	task := corpus.Tasks[0]
	opts := core.Options{Epochs: 1, LFs: []labeling.LF{}}

	full := core.NewStore(task, opts)
	defer full.Close()
	evicting := core.NewStore(task, core.Options{Epochs: 1, LFs: []labeling.LF{}, Backend: "disk", MaxResidentDocs: 2})
	defer evicting.Close()
	for _, st := range []*core.Store{full, evicting} {
		if err := st.AddDocuments(corpus.Docs...); err != nil {
			t.Fatal(err)
		}
	}
	es := evicting.StorageStats()
	if es.ResidentDocs > 2 || es.PeakResidentDocs > 2 {
		t.Fatalf("eviction budget violated: %+v", es)
	}
	for _, lf := range task.LFs {
		full.AddLF(lf)
		evicting.AddLF(lf)
	}
	fm, em := full.LabelMatrix(), evicting.LabelMatrix()
	if fm.NumCands != em.NumCands || fm.NumLFs != em.NumLFs {
		t.Fatalf("matrix dims differ: %dx%d vs %dx%d", fm.NumCands, fm.NumLFs, em.NumCands, em.NumLFs)
	}
	for i := 0; i < fm.NumCands; i++ {
		if !reflect.DeepEqual(fm.RowLabels(i), em.RowLabels(i)) {
			t.Fatalf("candidate %d votes differ under eviction", i)
		}
	}
	if m := labeling.ComputeMetrics(em); m.Coverage == 0 {
		t.Fatal("evicting store's LF application is all-abstain")
	}
	// A split run over rehydrated documents is bit-identical to the
	// resident store's.
	names := docNames(corpus.Docs)
	want, err := full.RunSplit(names[:5], names[5:], nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evicting.RunSplit(names[:5], names[5:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
		t.Errorf("RunSplit under eviction differs\n got: %+v\nwant: %+v", normalizeResult(got), normalizeResult(want))
	}
	// DevSession reads over an evicting store are hydration-aware:
	// Candidates() must never hand out nil (evicted) entries.
	dev := core.SessionFromStore(evicting)
	devCands := dev.Candidates()
	if len(devCands) != evicting.NumCandidates() {
		t.Fatalf("DevSession.Candidates() = %d, want %d", len(devCands), evicting.NumCandidates())
	}
	for i, c := range devCands {
		if c == nil {
			t.Fatalf("DevSession.Candidates()[%d] is nil over an evicting store", i)
		}
	}
	// Idempotent re-ingestion survives eviction: the same document is
	// a content-verified no-op even after its pointer was evicted,
	// while different contents under an ingested name stay refused.
	if err := evicting.AddDocuments(corpus.Docs[0]); err != nil {
		t.Fatalf("re-ingest of an identical document must be a no-op under eviction: %v", err)
	}
	if evicting.StorageStats().Docs != len(corpus.Docs) {
		t.Fatal("re-ingest of an identical document must not add a document")
	}
	imposter := synth.Electronics(983, 1).Docs[0]
	imposter.Name = corpus.Docs[0].Name
	if err := evicting.AddDocuments(imposter); err == nil {
		t.Fatal("different contents under an ingested name must be refused under eviction")
	}
}
