package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kbase"
	"repro/internal/serve"
	"repro/internal/synth"
)

// uploadFor serializes corpus document i the way an HTTP client
// would: from its stored sources.
func uploadFor(c *synth.Corpus, i int) serve.DocumentUpload {
	src := c.Sources[i]
	u := serve.DocumentUpload{Name: c.Docs[i].Name}
	if h := src["html"]; h != "" {
		u.Format = "html"
		u.Source = h
		u.VDoc = src["vdoc"]
	} else {
		u.Format = "xml"
		u.Source = src["xml"]
	}
	return u
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// getText returns the body of a GET that must answer 200.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// rawBody is a request body postJSON sends as it is, unmarshaled.
type rawBody string

func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	buf, err := json.Marshal(body)
	if raw, ok := body.(rawBody); ok {
		buf, err = []byte(raw), nil
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body %v)", url, resp.StatusCode, wantStatus, out)
	}
	return out
}

// featureSpaces is what /features reports of an epoch: the four sizes
// and an FNV-1a hash of the session feature names in served (admission)
// order.
type featureSpaces struct {
	run, session, pending, distinct int
	namesHash                       uint32
}

// wantFeatures checks /features against values recorded from this ingest
// sequence before the store's feature matrix was removed (PR 16's
// commit): the session index admits the same features in the same order
// and the below-floor count is still distinct minus admitted.
func wantFeatures(t *testing.T, url string, want featureSpaces) {
	t.Helper()
	f := getJSON(t, url+"/features", http.StatusOK)
	names := f["names"].([]any)
	h := fnv.New32a()
	for _, n := range names {
		h.Write([]byte(n.(string) + "\n"))
	}
	got := featureSpaces{
		int(f["runFeatures"].(float64)), int(f["sessionFeatures"].(float64)),
		int(f["pendingFeatures"].(float64)), int(f["distinctFeatures"].(float64)), h.Sum32(),
	}
	if got != want || got.pending != got.distinct-got.session || len(names) != got.session {
		t.Fatalf("/features = %+v (%d names), want %+v", got, len(names), want)
	}
}

// ingestTrained POSTs body to url's /ingest and then /admin/train, and
// returns the ingest's reply. An ingest publishes a delta epoch under
// the serving generation; the retrain then serves that epoch under a
// generation trained on it — the pair and the bytes of a from-scratch
// run over the corpus.
func ingestTrained(t *testing.T, url string, body any) map[string]any {
	t.Helper()
	reply := postJSON(t, url+"/ingest", body, http.StatusOK)
	postJSON(t, url+"/admin/train", nil, http.StatusOK)
	return reply
}

func epochOf(t *testing.T, payload map[string]any) uint64 {
	t.Helper()
	e, ok := payload["epoch"].(float64)
	if !ok {
		t.Fatalf("payload has no epoch: %v", payload)
	}
	return uint64(e)
}

// TestServeEndToEnd drives the whole serving flow over real HTTP:
// online ingestion in batches, every read endpoint, ad-hoc
// classification, snapshot to disk, and resuming the snapshot into a
// second server that serves the identical knowledge base.
func TestServeEndToEnd(t *testing.T) {
	corpus := synth.Electronics(51, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 3, Epochs: 1, Workers: 2}

	snapDir := filepath.Join(t.TempDir(), "session")
	srv := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts}, snapDir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Epoch 0: healthy, empty.
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["ok"] != true || epochOf(t, h) != 0 || h["docs"].(float64) != 0 {
		t.Fatalf("initial healthz = %v", h)
	}

	// ---- Ingest the first half.
	var batch1 []serve.DocumentUpload
	for i := 0; i < 4; i++ {
		batch1 = append(batch1, uploadFor(corpus, i))
	}
	ing := ingestTrained(t, ts.URL, map[string]any{"documents": batch1})
	if epochOf(t, ing) != 1 || ing["docs"].(float64) != 4 || ing["added"].(float64) != 4 {
		t.Fatalf("ingest reply = %v", ing)
	}

	// ---- Read endpoints at epoch 1.
	kb := getJSON(t, ts.URL+"/kb", http.StatusOK)
	if epochOf(t, kb) != 1 {
		t.Fatalf("kb epoch = %v", kb["epoch"])
	}
	tuples := kb["tuples"].([]any)
	if int(kb["total"].(float64)) != len(tuples) {
		t.Fatalf("kb total %v != %d tuples", kb["total"], len(tuples))
	}
	cols := kb["columns"].([]any)
	if len(cols) != task.Schema.Arity() {
		t.Fatalf("kb columns = %v", cols)
	}

	cands := getJSON(t, ts.URL+"/candidates", http.StatusOK)
	nCands := int(cands["total"].(float64))
	if nCands == 0 {
		t.Fatal("no candidates served")
	}
	first := cands["candidates"].([]any)[0].(map[string]any)
	for _, key := range []string{"id", "doc", "values", "marginal", "votes", "mentions"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("candidate payload missing %q: %v", key, first)
		}
	}
	// Doc filter returns only that document's candidates.
	docName := first["doc"].(string)
	filtered := getJSON(t, ts.URL+"/candidates?doc="+docName, http.StatusOK)
	for _, c := range filtered["candidates"].([]any) {
		if c.(map[string]any)["doc"] != docName {
			t.Fatalf("doc filter leaked: %v", c)
		}
	}

	marg := getJSON(t, ts.URL+"/marginals", http.StatusOK)
	if int(marg["total"].(float64)) != nCands {
		t.Fatalf("marginals total %v, want %d", marg["total"], nCands)
	}
	// Pagination: one-element window preserves the total.
	margPage := getJSON(t, ts.URL+"/marginals?offset=1&limit=1", http.StatusOK)
	if int(margPage["total"].(float64)) != nCands || len(margPage["marginals"].([]any)) != 1 {
		t.Fatalf("paginated marginals = %v", margPage)
	}
	// A pathological limit must not overflow the page bounds — the
	// same request once panicked the handler with a slice-bounds
	// crash (offset+limit wrapping negative).
	hugeLimit := fmt.Sprintf("%d", int64(1)<<62)
	margHuge := getJSON(t, ts.URL+"/marginals?offset=2&limit="+hugeLimit, http.StatusOK)
	if len(margHuge["marginals"].([]any)) != nCands-2 {
		t.Fatalf("huge-limit marginals = %v", margHuge)
	}
	getJSON(t, ts.URL+"/kb?offset=1&limit="+hugeLimit, http.StatusOK)

	lfm := getJSON(t, ts.URL+"/lfmetrics", http.StatusOK)
	if lfm["coverage"].(float64) <= 0 {
		t.Fatalf("lfmetrics coverage = %v", lfm["coverage"])
	}
	if len(lfm["perLF"].([]any)) != len(task.LFs) {
		t.Fatalf("perLF = %v, want %d entries", lfm["perLF"], len(task.LFs))
	}

	feats := getJSON(t, ts.URL+"/features?limit=5", http.StatusOK)
	if feats["runFeatures"].(float64) <= 0 || feats["sessionFeatures"].(float64) <= 0 {
		t.Fatalf("features stats = %v", feats)
	}
	if len(feats["names"].([]any)) > 5 {
		t.Fatalf("features names ignored limit: %v", feats["names"])
	}
	wantFeatures(t, ts.URL, featureSpaces{run: 409, session: 409, pending: 1, distinct: 410, namesHash: 2078371943})

	meta := getJSON(t, ts.URL+"/meta", http.StatusOK)
	if meta["relation"].(string) != task.Relation {
		t.Fatalf("meta relation = %v", meta["relation"])
	}
	if len(meta["docs"].([]any)) != 4 {
		t.Fatalf("meta docs = %v", meta["docs"])
	}
	if int(meta["kbEntries"].(float64)) != len(tuples) {
		t.Fatalf("meta kbEntries %v != kb tuples %d", meta["kbEntries"], len(tuples))
	}

	// ---- KB column filter: filter on the first tuple's first value.
	if len(tuples) > 0 {
		row := tuples[0].([]any)
		colName := cols[0].(string)
		want := fmt.Sprint(row[0])
		fkb := getJSON(t, ts.URL+"/kb?"+colName+"="+want, http.StatusOK)
		frows := fkb["tuples"].([]any)
		if len(frows) == 0 {
			t.Fatal("column filter matched nothing")
		}
		for _, r := range frows {
			if fmt.Sprint(r.([]any)[0]) != want {
				t.Fatalf("column filter leaked row %v", r)
			}
		}
	}
	// Unknown column and foreign relation are client errors.
	getJSON(t, ts.URL+"/kb?nosuchcol=1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/kb?relation=Other", http.StatusNotFound)

	// ---- Ad-hoc classification of a not-yet-ingested document does
	// not change the epoch or the corpus.
	cls := postJSON(t, ts.URL+"/classify", uploadFor(corpus, 4), http.StatusOK)
	if epochOf(t, cls) != 1 {
		t.Fatalf("classify epoch = %v", cls["epoch"])
	}
	if getJSON(t, ts.URL+"/healthz", http.StatusOK)["docs"].(float64) != 4 {
		t.Fatal("classify mutated the corpus")
	}

	// ---- Ingest the rest; error paths.
	var batch2 []serve.DocumentUpload
	for i := 4; i < 8; i++ {
		batch2 = append(batch2, uploadFor(corpus, i))
	}
	ing2 := ingestTrained(t, ts.URL, map[string]any{"documents": batch2})
	if epochOf(t, ing2) != 2 || ing2["docs"].(float64) != 8 {
		t.Fatalf("second ingest reply = %v", ing2)
	}
	wantFeatures(t, ts.URL, featureSpaces{run: 568, session: 568, pending: 1, distinct: 569, namesHash: 3568624762})
	// Same name, different contents: conflict, epoch unchanged.
	dup := uploadFor(corpus, 0)
	dup.Source = "<html><body><p>changed</p></body></html>"
	dup.VDoc = ""
	postJSON(t, ts.URL+"/ingest", map[string]any{"documents": []serve.DocumentUpload{dup}}, http.StatusConflict)
	postJSON(t, ts.URL+"/ingest", map[string]any{"documents": []serve.DocumentUpload{}}, http.StatusBadRequest)
	// A body is one JSON value: a second one, or anything but whitespace
	// after it, is refused whole — not the first value taken and the rest
	// dropped.
	fresh := `{"documents":[{"name":"extra","source":"<p>x</p>"}]}`
	postJSON(t, ts.URL+"/ingest", rawBody(fresh+" "+fresh+" garbage"), http.StatusBadRequest)
	if e := epochOf(t, getJSON(t, ts.URL+"/healthz", http.StatusOK)); e != 2 {
		t.Fatalf("failed ingests moved the epoch to %d", e)
	}
	postJSON(t, ts.URL+"/admin/snapshot", rawBody("{}x"), http.StatusBadRequest)
	if _, err := os.Stat(snapDir); !os.IsNotExist(err) {
		t.Fatalf("the refused snapshot wrote %s (%v)", snapDir, err)
	}

	// ---- Snapshot (a body ending in a newline is still one value) and
	// resume into a second server.
	snap := postJSON(t, ts.URL+"/admin/snapshot", rawBody("{}\n"), http.StatusOK)
	if snap["dir"].(string) != snapDir {
		t.Fatalf("snapshot dir = %v", snap["dir"])
	}
	kbBefore := getJSON(t, ts.URL+"/kb", http.StatusOK)

	srv2 := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts}, snapDir)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	kbAfter := getJSON(t, ts2.URL+"/kb", http.StatusOK)
	if !reflect.DeepEqual(kbBefore["tuples"], kbAfter["tuples"]) || !reflect.DeepEqual(kbBefore["columns"], kbAfter["columns"]) {
		t.Fatalf("resumed server serves a different KB\nbefore: %v\nafter:  %v", kbBefore["tuples"], kbAfter["tuples"])
	}
	if h := getJSON(t, ts2.URL+"/healthz", http.StatusOK); h["docs"].(float64) != 8 {
		t.Fatalf("resumed healthz = %v", h)
	}
}

// TestServeClosed verifies writes fail cleanly after Close while
// reads keep serving the last published view.
func TestServeClosed(t *testing.T) {
	corpus := synth.Electronics(52, 2)
	task := corpus.Tasks[0]
	srv := newTenant(t, task, nil, serve.RegistryConfig{BaseOptions: core.Options{Seed: 1, Epochs: 1}}, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.Close()
	postJSON(t, ts.URL+"/ingest", map[string]any{
		"documents": []serve.DocumentUpload{uploadFor(corpus, 0)},
	}, http.StatusServiceUnavailable)
	postJSON(t, ts.URL+"/admin/snapshot", nil, http.StatusServiceUnavailable)
	if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); h["ok"] != true {
		t.Fatalf("reads must survive Close: %v", h)
	}
}

// TestReingestConflictsOnEveryBackend: re-POSTing an already ingested
// document — byte for byte the same upload — answers 409 and leaves the
// epoch alone, whichever engine kind stores the session.
func TestReingestConflictsOnEveryBackend(t *testing.T) {
	corpus := synth.Electronics(53, 2)
	for _, backend := range kbase.BackendKinds() {
		t.Run(backend, func(t *testing.T) {
			srv := newTenant(t, corpus.Tasks[0], nil, serve.RegistryConfig{BaseOptions: core.Options{Seed: 1, Epochs: 1, Backend: backend}}, "")
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			req := map[string]any{"documents": []serve.DocumentUpload{uploadFor(corpus, 0), uploadFor(corpus, 1)}}
			postJSON(t, ts.URL+"/ingest", req, http.StatusOK)
			postJSON(t, ts.URL+"/ingest", req, http.StatusConflict)
			if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); epochOf(t, h) != 1 || h["docs"].(float64) != 2 {
				t.Fatalf("the refused re-ingest changed the session: %v", h)
			}
		})
	}
}
