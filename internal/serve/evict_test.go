package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kbase"
	"repro/internal/serve"
	"repro/internal/synth"
)

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, body)
	}
	return body
}

// TestServeLargerThanRAMEviction is the acceptance test for the
// pluggable storage engine: a synth corpus 4x the resident-document
// budget is ingested online into a disk-paged, evicting session and
// into an in-memory unbounded reference session. Every served epoch's
// knowledge base must be byte-identical across the two, ad-hoc
// classification must agree, snapshots must hold byte-identical
// relations — and the /meta storage counters must prove the budget
// held (peak resident documents never above MaxResidentDocs) while
// the page cache absorbed reads. Concurrent readers hammer the
// evicting server throughout, so the whole path is race-tested.
func TestServeLargerThanRAMEviction(t *testing.T) {
	const budget = 4
	corpus := synth.Electronics(91, 4*budget)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]

	newServer := func(backend string, maxResident int, snapDir string) (*serve.Server, *httptest.Server) {
		t.Helper()
		srv, err := serve.New(serve.Config{
			Task: task,
			Options: core.Options{
				Seed: 3, Epochs: 1, Workers: 2,
				Backend: backend, MaxResidentDocs: maxResident,
			},
			Gold:        gold,
			SnapshotDir: snapDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	refSnap := filepath.Join(t.TempDir(), "ref")
	evictSnap := filepath.Join(t.TempDir(), "evict")
	refSrv, ref := newServer("memory", 0, refSnap)
	defer refSrv.Close()
	defer ref.Close()
	evictSrv, evict := newServer("disk", budget, evictSnap)
	defer evictSrv.Close()
	defer evict.Close()

	// Concurrent readers over the evicting server for the whole
	// ingestion: every response must parse and come from exactly one
	// epoch (the race detector guards the rest).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/kb", "/meta", "/candidates?limit=5", "/healthz"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(evict.URL + paths[i%len(paths)])
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	// Ingest batch by batch into both servers; after each epoch the
	// served KB must be byte-identical.
	for lo := 0; lo < len(corpus.Docs); lo += budget {
		var batch []serve.DocumentUpload
		for i := lo; i < lo+budget; i++ {
			batch = append(batch, uploadFor(corpus, i))
		}
		req := map[string]any{"documents": batch}
		postJSON(t, ref.URL+"/ingest", req, http.StatusOK)
		postJSON(t, evict.URL+"/ingest", req, http.StatusOK)
		for _, path := range []string{"/kb", "/marginals", "/lfmetrics"} {
			want := getRaw(t, ref.URL+path)
			got := getRaw(t, evict.URL+path)
			if !bytes.Equal(want, got) {
				t.Fatalf("after %d docs, %s differs between memory and evicting disk sessions:\nmemory: %.300s\ndisk:   %.300s",
					lo+budget, path, want, got)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The /meta storage counters prove the budget held.
	meta := getJSON(t, evict.URL+"/meta", http.StatusOK)
	storage, ok := meta["storage"].(map[string]any)
	if !ok {
		t.Fatalf("/meta has no storage section: %v", meta)
	}
	if storage["backend"] != "disk" {
		t.Fatalf("storage.backend = %v", storage["backend"])
	}
	if got := int(storage["docs"].(float64)); got != len(corpus.Docs) {
		t.Fatalf("storage.docs = %d, want %d", got, len(corpus.Docs))
	}
	if got := int(storage["maxResidentDocs"].(float64)); got != budget {
		t.Fatalf("storage.maxResidentDocs = %d, want %d", got, budget)
	}
	peak := int(storage["peakResidentDocs"].(float64))
	if peak < 1 || peak > budget {
		t.Fatalf("storage.peakResidentDocs = %d, want in [1,%d]", peak, budget)
	}
	if got := int(storage["residentDocs"].(float64)); got > budget {
		t.Fatalf("storage.residentDocs = %d exceeds budget %d", got, budget)
	}
	if got := storage["diskPages"].(float64); got == 0 {
		t.Fatal("storage.diskPages = 0: the relations should span pages")
	}
	// The reference session reports its own (memory, unbounded) shape.
	refStorage := getJSON(t, ref.URL+"/meta", http.StatusOK)["storage"].(map[string]any)
	if refStorage["backend"] != "memory" || int(refStorage["residentDocs"].(float64)) != len(corpus.Docs) {
		t.Fatalf("reference storage = %v", refStorage)
	}

	// Ad-hoc classification against the served models agrees.
	fresh := synth.Electronics(17, len(corpus.Docs)+1)
	upload := uploadFor(fresh, len(fresh.Docs)-1)
	want := postJSON(t, ref.URL+"/classify", upload, http.StatusOK)
	got := postJSON(t, evict.URL+"/classify", upload, http.StatusOK)
	if fmt.Sprint(want["tuples"]) != fmt.Sprint(got["tuples"]) || fmt.Sprint(want["candidates"]) != fmt.Sprint(got["candidates"]) {
		t.Fatalf("/classify differs:\nmemory: %v\ndisk:   %v", want, got)
	}

	// Snapshots from both sessions hold byte-identical relations.
	postJSON(t, ref.URL+"/admin/snapshot", map[string]any{}, http.StatusOK)
	postJSON(t, evict.URL+"/admin/snapshot", map[string]any{}, http.StatusOK)
	wantFiles, err := os.ReadDir(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantFiles) == 0 {
		t.Fatal("reference snapshot is empty")
	}
	for _, e := range wantFiles {
		wb, err := os.ReadFile(filepath.Join(refSnap, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(evictSnap, e.Name()))
		if err != nil {
			t.Fatalf("evicting snapshot is missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("snapshot file %s differs between backends", e.Name())
		}
	}
	refDB, err := kbase.LoadDB(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	evictDB, err := kbase.LoadDB(evictSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !kbase.EqualDB(refDB, evictDB) {
		t.Fatal("snapshot relations differ between backends")
	}

	// Online epochs are delta captures — they read only the batch just
	// ingested, which is still resident — so the page cache has had
	// nothing to absorb yet. Resuming the snapshot under the same budget
	// has: the initial view rehydrates every document through the LRU
	// budget, and must serve the KB the live session ended on.
	opts := core.Options{Seed: 3, Epochs: 1, Workers: 2, Backend: "disk", MaxResidentDocs: budget}
	st, err := core.OpenStore(evictSnap, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumedSrv, err := serve.New(serve.Config{Task: task, Options: opts, Gold: gold, Store: st})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	defer resumedSrv.Close()
	resumed := httptest.NewServer(resumedSrv.Handler())
	defer resumed.Close()
	live := getJSON(t, evict.URL+"/kb", http.StatusOK)
	again := getJSON(t, resumed.URL+"/kb", http.StatusOK)
	if fmt.Sprint(live["tuples"]) != fmt.Sprint(again["tuples"]) || live["total"] != again["total"] {
		t.Fatalf("resumed session serves a different KB:\nlive:    %.300v\nresumed: %.300v", live["tuples"], again["tuples"])
	}
	storage = getJSON(t, resumed.URL+"/meta", http.StatusOK)["storage"].(map[string]any)
	if peak := int(storage["peakResidentDocs"].(float64)); peak < 1 || peak > budget {
		t.Fatalf("resumed storage.peakResidentDocs = %d, want in [1,%d]", peak, budget)
	}
	if hits := storage["pageCacheHits"].(float64); hits == 0 {
		t.Fatal("resumed storage.pageCacheHits = 0: rehydration should read through the cache")
	}
}
