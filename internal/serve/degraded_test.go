package serve_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The faults of this file are real ones, injected through the real
// path: task code that panics. armedThrottler returns task with one more
// throttler, which keeps every candidate and panics while armed is set —
// the writer runs it on pool workers, after the upload parsed.
func armedThrottler(task core.Task, armed *atomic.Bool) core.Task {
	task.Throttlers = append(task.Throttlers[:len(task.Throttlers):len(task.Throttlers)], func(*candidates.Candidate) bool {
		if armed.Load() {
			panic("throttler blew up")
		}
		return true
	})
	return task
}

// dirBytes reads every file of a snapshot directory.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(body)
	}
	return out
}

func uploads(c *synth.Corpus, lo, hi int) map[string]any {
	var docs []serve.DocumentUpload
	for i := lo; i < hi; i++ {
		docs = append(docs, uploadFor(c, i))
	}
	return map[string]any{"documents": docs}
}

func kbOf(t *testing.T, url string) (uint64, string) {
	t.Helper()
	kb := getJSON(t, url+"/kb", http.StatusOK)
	canon, err := canonicalKB(kb["columns"], kb["tuples"])
	if err != nil {
		t.Fatal(err)
	}
	return epochOf(t, kb), canon
}

// wantWriterFailed checks a tenant's /healthz for the writer's failure
// record, naming the panic.
func wantWriterFailed(t *testing.T, h map[string]any, servedEpoch float64) {
	t.Helper()
	deg, ok := h["degraded"].(map[string]any)
	if h["ok"] != false || !ok {
		t.Fatalf("failed tenant's healthz = %v", h)
	}
	if msg, _ := deg["error"].(string); deg["where"] != "writer" || !strings.Contains(msg, "throttler blew up") {
		t.Fatalf("degraded record = %v, want the writer's, naming the panic", deg)
	}
	if deg["storeEpoch"] != servedEpoch || deg["servedEpoch"] != servedEpoch {
		t.Fatalf("degraded record epochs = %v, want both %v: the session never took the batch", deg, servedEpoch)
	}
}

// TestPartialIngestMarksDegraded: an ingest whose task code panics
// closes the tenant. The request is answered 503, /healthz and /meta
// carry the record, naming the panic; readers keep the last epoch, byte
// for byte; later writes, retrains and snapshots are refused with 503
// and the last good snapshot directory is untouched; and reloading from
// that snapshot is the way back — the reloaded session, fed the
// remaining documents, serves the KB of a server that never failed.
func TestPartialIngestMarksDegraded(t *testing.T) {
	corpus := synth.Electronics(78, 6)
	var armed atomic.Bool
	task := armedThrottler(corpus.Tasks[0], &armed)
	opts := core.Options{Seed: 5, Epochs: 1, Workers: 2, Backend: "disk"}
	snap := filepath.Join(t.TempDir(), "snap")

	srv, err := serve.New(serve.Config{Task: task, Options: opts, SnapshotDir: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy epoch 1, snapshotted.
	postJSON(t, ts.URL+"/ingest", uploads(corpus, 0, 2), http.StatusOK)
	postJSON(t, ts.URL+"/admin/snapshot", nil, http.StatusOK)
	good := dirBytes(t, snap)
	epochBefore, kbBefore := kbOf(t, ts.URL)
	if epochBefore != 1 {
		t.Fatalf("kb epoch = %d", epochBefore)
	}

	// ---- The fault.
	armed.Store(true)
	fail := postJSON(t, ts.URL+"/ingest", uploads(corpus, 2, 4), http.StatusServiceUnavailable)
	if msg, _ := fail["error"].(string); !strings.Contains(msg, "throttler blew up") {
		t.Fatalf("ingest error = %v", fail)
	}
	meta := getJSON(t, ts.URL+"/meta", http.StatusOK)
	wantWriterFailed(t, getJSON(t, ts.URL+"/healthz", http.StatusOK), 1)
	if _, ok := meta["degraded"]; !ok {
		t.Fatalf("failed tenant's /meta lacks the record: %v", meta)
	}

	// Fail closed, keep serving.
	postJSON(t, ts.URL+"/ingest", uploads(corpus, 4, 6), http.StatusServiceUnavailable)
	postJSON(t, ts.URL+"/admin/snapshot", nil, http.StatusServiceUnavailable)
	postJSON(t, ts.URL+"/admin/train", nil, http.StatusServiceUnavailable)
	if e, kb := kbOf(t, ts.URL); e != 1 || kb != kbBefore {
		t.Fatalf("failed tenant serves epoch %d; its last epoch's KB changed: %v", e, kb != kbBefore)
	}
	if !reflect.DeepEqual(dirBytes(t, snap), good) {
		t.Fatal("failed tenant's last good snapshot directory changed")
	}

	// ---- The way back: reload from the snapshot.
	armed.Store(false)
	st, err := core.OpenStore(snap, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := serve.New(serve.Config{Task: task, Options: opts, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	ref, err := serve.New(serve.Config{Task: task, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	reloadedTS, refTS := httptest.NewServer(reloaded.Handler()), httptest.NewServer(ref.Handler())
	defer reloadedTS.Close()
	defer refTS.Close()
	postJSON(t, refTS.URL+"/ingest", uploads(corpus, 0, 2), http.StatusOK)
	for _, url := range []string{reloadedTS.URL, refTS.URL} {
		postJSON(t, url+"/ingest", uploads(corpus, 2, 4), http.StatusOK)
		postJSON(t, url+"/ingest", uploads(corpus, 4, 6), http.StatusOK)
	}
	_, got := kbOf(t, reloadedTS.URL)
	if _, want := kbOf(t, refTS.URL); got != want {
		t.Fatalf("reloaded KB differs from never-failed server\n got: %s\nwant: %s", got, want)
	}
}

// TestRegistryAggregatesDegradedTenant is the fleet view of the same
// fault, three tenants in one registry: A (disk, electronics) panics in
// its throttler. A reports degraded naming the panic, refuses /ingest and
// /admin/snapshot with its snapshot directory byte-identical, and keeps
// serving its last epoch; the fleet /healthz conjunction and the tenant
// listing show it; B (disk) and C (memory) never notice — every epoch
// they publish afterwards is bit-identical to a standalone server's.
// Deleting and re-creating A reloads it from its snapshot.
func TestRegistryAggregatesDegradedTenant(t *testing.T) {
	opts := core.Options{Seed: 5, Epochs: 1, Workers: 1}
	root := t.TempDir()
	var armed atomic.Bool
	resolve := testResolver(t)
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve: func(domain, relation string) (core.Task, []core.GoldTuple, error) {
			task, gold, err := resolve(domain, relation)
			if domain == "electronics" {
				task = armedThrottler(task, &armed)
			}
			return task, gold, err
		},
		BaseOptions:  opts,
		SnapshotRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rg.Close)
	type tenant struct {
		name, domain, backend string
		corpus                *synth.Corpus
	}
	tenants := []tenant{
		{"a", "electronics", "disk", synth.Electronics(78, 4)},
		{"b", "ads", "disk", synth.Ads(44, 4)},
		{"c", "genomics", "memory", synth.Genomics(45, 4)},
	}
	for _, tn := range tenants {
		if _, err := rg.Create(serve.TenantConfig{Name: tn.name, Domain: tn.domain, Backend: tn.backend}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	// Epoch 1 everywhere; A snapshots it.
	for _, tn := range tenants {
		postJSON(t, ts.URL+"/t/"+tn.name+"/ingest", uploads(tn.corpus, 0, 2), http.StatusOK)
	}
	snapA := postJSON(t, ts.URL+"/t/a/admin/snapshot", nil, http.StatusOK)["dir"].(string)
	good := dirBytes(t, snapA)
	_, kbA := kbOf(t, ts.URL+"/t/a")

	armed.Store(true)
	postJSON(t, ts.URL+"/t/a/ingest", uploads(tenants[0].corpus, 2, 4), http.StatusServiceUnavailable)
	postJSON(t, ts.URL+"/t/a/ingest", uploads(tenants[0].corpus, 2, 4), http.StatusServiceUnavailable)
	postJSON(t, ts.URL+"/t/a/admin/snapshot", nil, http.StatusServiceUnavailable)
	if e, kb := kbOf(t, ts.URL+"/t/a"); e != 1 || kb != kbA {
		t.Fatalf("failed tenant serves epoch %d; KB changed: %v", e, kb != kbA)
	}
	if !reflect.DeepEqual(dirBytes(t, snapA), good) {
		t.Fatal("failed tenant's snapshot directory changed")
	}

	// The neighbours go on, bit-identical to standalone servers.
	resolver := testResolver(t)
	for _, tn := range tenants[1:] {
		postJSON(t, ts.URL+"/t/"+tn.name+"/ingest", uploads(tn.corpus, 2, 4), http.StatusOK)
		task, _, err := resolver(tn.domain, "")
		if err != nil {
			t.Fatal(err)
		}
		tnOpts := opts
		tnOpts.Backend = tn.backend
		ref, err := serve.New(serve.Config{Task: task, Options: tnOpts})
		if err != nil {
			t.Fatal(err)
		}
		refTS := httptest.NewServer(ref.Handler())
		postJSON(t, refTS.URL+"/ingest", uploads(tn.corpus, 0, 2), http.StatusOK)
		postJSON(t, refTS.URL+"/ingest", uploads(tn.corpus, 2, 4), http.StatusOK)
		gotE, got := kbOf(t, ts.URL+"/t/"+tn.name)
		wantE, want := kbOf(t, refTS.URL)
		refTS.Close()
		ref.Close()
		if gotE != wantE || got != want {
			t.Fatalf("tenant %s epoch %d differs from standalone epoch %d\n got: %s\nwant: %s", tn.name, gotE, wantE, got, want)
		}
	}

	// The fleet says which tenant, and only that one.
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["ok"] != false {
		t.Fatalf("fleet healthz ok = %v with a failed tenant", h["ok"])
	}
	for _, row := range h["tenants"].([]any) {
		p := row.(map[string]any)
		if p["name"] == "a" {
			wantWriterFailed(t, p, 1)
		} else if p["ok"] != true {
			t.Fatalf("tenant %v caught its neighbour's failure: %v", p["name"], p)
		}
	}
	list := getJSON(t, ts.URL+"/admin/tenants", http.StatusOK)
	for _, row := range list["tenants"].([]any) {
		p := row.(map[string]any)
		if _, failed := p["degraded"]; failed != (p["name"] == "a") {
			t.Fatalf("tenant listing row %v", p)
		}
	}

	// The way back: delete and re-create A. It resumes its snapshot —
	// the KB it was serving — healthy, and takes the batch it refused.
	armed.Store(false)
	if err := rg.SetDefault("c"); err != nil {
		t.Fatal(err)
	}
	deleteReq(t, ts.URL+"/admin/tenants/a", http.StatusOK)
	created := postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "a", "domain": "electronics", "backend": "disk"}, http.StatusCreated)
	if _, kb := kbOf(t, ts.URL+"/t/a"); created["resumed"] != true || kb != kbA {
		t.Fatalf("re-created tenant %v does not serve its snapshot's KB", created)
	}
	postJSON(t, ts.URL+"/t/a/ingest", uploads(tenants[0].corpus, 2, 4), http.StatusOK)
	if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); h["ok"] != true {
		t.Fatalf("fleet healthz after the reload = %v", h)
	}
}

// TestIngestNamesFirstBadDocument: an upload's documents parse side by
// side, and the refusal still names the first bad one in upload order —
// here documents 2 and 4 of five are invalid in different ways, at
// every worker count — and nothing of the upload is ingested.
func TestIngestNamesFirstBadDocument(t *testing.T) {
	corpus := synth.Electronics(78, 5)
	for _, workers := range []int{1, 2, 8} {
		srv, err := serve.New(serve.Config{Task: corpus.Tasks[0], Options: core.Options{Seed: 5, Epochs: 1, Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		for round := 0; round < 20; round++ {
			bad := uploads(corpus, 0, 5)
			docs := bad["documents"].([]serve.DocumentUpload)
			docs[1].Source = strings.Replace(docs[1].Source, "<td>", "<td>\x1f", 1)
			docs[3].Format = "docx"
			resp := postJSON(t, ts.URL+"/ingest", bad, http.StatusBadRequest)
			if msg, _ := resp["error"].(string); !strings.Contains(msg, docs[1].Name) || strings.Contains(msg, docs[3].Name) {
				t.Fatalf("workers %d: refusal names %v, want document 2 (%s)", workers, resp, docs[1].Name)
			}
		}
		if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); h["ok"] != true || h["docs"].(float64) != 0 {
			t.Fatalf("workers %d: refused uploads left a mark: %v", workers, h)
		}
		ts.Close()
		srv.Close()
	}
}

// TestReservedByteUploadRefused is the regression test for the upload
// that used to poison a tenant: HTML carrying the store's reserved
// separator byte was answered 409 after its document had been merged,
// the next publish served it and every later snapshot was unresumable.
// Now the parser refuses it with 400 before the writer is involved, the
// store's own guard refuses a programmatically built one the same way,
// neither leaves a trace — the tenant stays healthy and at its epoch —
// and ingest + /admin/snapshot + OpenStore give a KB bit-identical to a
// server that never saw either.
func TestReservedByteUploadRefused(t *testing.T) {
	corpus := synth.Electronics(78, 4)
	task := corpus.Tasks[0]
	opts := core.Options{Seed: 5, Epochs: 1, Workers: 2}
	serverOver := func(st *core.Store) (*serve.Server, string) {
		srv, err := serve.New(serve.Config{Task: task, Options: opts, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return srv, ts.URL
	}
	srv, url := serverOver(nil)
	_, refURL := serverOver(nil)
	for _, u := range []string{url, refURL} {
		postJSON(t, u+"/ingest", uploads(corpus, 0, 2), http.StatusOK)
	}

	// Over HTTP: a batch of one good document and one carrying 0x1F.
	bad := uploads(corpus, 2, 4)
	evil := &bad["documents"].([]serve.DocumentUpload)[1]
	evil.Source = strings.Replace(evil.Source, "<td>", "<td>\x1f", 1)
	resp := postJSON(t, url+"/ingest", bad, http.StatusBadRequest)
	if msg, _ := resp["error"].(string); !strings.Contains(msg, evil.Name) {
		t.Fatalf("refusal does not name the document: %v", resp)
	}
	// Past the parser: a built document through the writer.
	b := datamodel.NewBuilder("built", "html")
	b.AddSentence(b.AddParagraph(b.AddText()), []string{"bad\x1eword"})
	docs := append(reparse(t, corpus)[2:3], b.Finish())
	if _, err := srv.Ingest(docs); !errors.Is(err, core.ErrInvalidDocument) {
		t.Fatalf("Ingest = %v, want ErrInvalidDocument", err)
	}
	if h := getJSON(t, url+"/healthz", http.StatusOK); h["ok"] != true || h["epoch"].(float64) != 1 || h["docs"].(float64) != 2 {
		t.Fatalf("refused uploads left a mark: %v", h)
	}

	// Both servers take the good documents; the snapshots and the KBs
	// they resume to are the same bytes.
	snap, refSnap := filepath.Join(t.TempDir(), "s"), filepath.Join(t.TempDir(), "s")
	for u, dir := range map[string]string{url: snap, refURL: refSnap} {
		postJSON(t, u+"/ingest", uploads(corpus, 2, 4), http.StatusOK)
		postJSON(t, u+"/admin/snapshot", map[string]any{"dir": dir}, http.StatusOK)
	}
	if !reflect.DeepEqual(dirBytes(t, snap), dirBytes(t, refSnap)) {
		t.Fatal("snapshot differs from a server that never saw the refused uploads")
	}
	var kbs []string
	for _, dir := range []string{snap, refSnap} {
		st, err := core.OpenStore(dir, task, opts)
		if err != nil {
			t.Fatalf("snapshot does not resume: %v", err)
		}
		_, resumedURL := serverOver(st)
		_, kb := kbOf(t, resumedURL)
		kbs = append(kbs, kb)
	}
	if _, live := kbOf(t, url); kbs[0] != kbs[1] || kbs[0] != live || !strings.Contains(live, "[[") {
		t.Fatalf("resumed KBs differ (or are empty):\n%s\n%s\n%s", kbs[0], kbs[1], live)
	}
}

// TestWriterPanicClosesTenant: a panic in task code — here a throttler,
// which the writer runs on pool workers and /classify on the handler's
// goroutine — ends neither the process nor the server. The writer turn
// is answered 503, counted in fonduer_panics_total{where="writer"}, and
// the tenant is failed with the panic on record; the handler panic is
// counted under where="http" and answered 500.
func TestWriterPanicClosesTenant(t *testing.T) {
	corpus := synth.Electronics(78, 2)
	task := corpus.Tasks[0]
	var armed atomic.Bool
	task.Throttlers = append(task.Throttlers[:len(task.Throttlers):len(task.Throttlers)], func(*candidates.Candidate) bool {
		if armed.Load() {
			panic("throttler blew up")
		}
		return true
	})
	metrics := obs.NewMetrics()
	srv, err := serve.New(serve.Config{Task: task, Options: core.Options{Seed: 5, Epochs: 1, Workers: 2}, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/ingest", uploads(corpus, 0, 1), http.StatusOK)
	armed.Store(true)
	resp := postJSON(t, ts.URL+"/ingest", uploads(corpus, 1, 2), http.StatusServiceUnavailable)
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "throttler blew up") {
		t.Fatalf("ingest error = %v", resp)
	}
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if deg, _ := h["degraded"].(map[string]any); h["ok"] != false || deg["where"] != "writer" || h["epoch"].(float64) != 1 {
		t.Fatalf("healthz after a writer panic = %v", h)
	}
	postJSON(t, ts.URL+"/classify", uploadFor(corpus, 1), http.StatusInternalServerError)

	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fonduer_panics_total{tenant="default",where="writer"} 1`,
		`fonduer_panics_total{tenant="default",where="http"} 1`,
		`fonduer_http_requests_total{tenant="default",route="/classify",status="500"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics lack %s", want)
		}
	}
}

// TestKBRejectsDuplicateFilterParams is the regression test for the
// silent vals[0] drop: /kb column filters are exact single-valued
// matches, so repeating a filter parameter is a client error (400),
// not a silent match on the first value. (OR-matching is explicitly
// not a feature; the error says so.)
func TestKBRejectsDuplicateFilterParams(t *testing.T) {
	corpus := synth.Electronics(79, 4)
	task := corpus.Tasks[0]
	srv, err := serve.New(serve.Config{Task: task, Options: core.Options{Seed: 5, Epochs: 1, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var docs []serve.DocumentUpload
	for i := 0; i < 4; i++ {
		docs = append(docs, uploadFor(corpus, i))
	}
	postJSON(t, ts.URL+"/ingest", map[string]any{"documents": docs}, http.StatusOK)

	kb := getJSON(t, ts.URL+"/kb", http.StatusOK)
	col := kb["columns"].([]any)[0].(string)

	// One value per filter: fine (whether or not anything matches).
	getJSON(t, ts.URL+"/kb?"+col+"=a", http.StatusOK)
	// The same filter twice: rejected, with the column named.
	resp := getJSON(t, ts.URL+"/kb?"+col+"=a&"+col+"=b", http.StatusBadRequest)
	if msg, _ := resp["error"].(string); !strings.Contains(msg, col) {
		t.Fatalf("duplicate-filter error does not name the column: %v", resp)
	}
}
