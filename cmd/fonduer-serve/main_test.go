package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	fonduer "repro"
)

func get(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeStoreIntegration is the command-level acceptance test: a
// session batch-built through the fonduer.Store API (exactly what
// 'fonduer -store' persists, same <store>/<relation> layout) is
// served by the registry's default tenant — resumed from disk, with
// the KB, candidates and metadata immediately queryable at both the
// un-prefixed alias and the /t/default/ routes.
func TestServeStoreIntegration(t *testing.T) {
	storeDir := t.TempDir()
	corpus := fonduer.ElectronicsCorpus(3, 6)
	task := corpus.Tasks[0]
	opts := fonduer.Options{Epochs: 2, Seed: 1}
	st := fonduer.NewStore(task, opts)
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(filepath.Join(storeDir, task.Relation)); err != nil {
		t.Fatal(err)
	}

	rg, err := buildRegistry(storeDir, "electronics", task.Relation, "", opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	list := rg.List()
	if len(list) != 1 || list[0].Name != "default" || !list[0].Default {
		t.Fatalf("registry tenants = %+v", list)
	}
	if !list[0].Resumed {
		t.Fatal("expected the snapshot to be resumed")
	}
	if list[0].Relation != task.Relation {
		t.Fatalf("served relation %q, want %q", list[0].Relation, task.Relation)
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	h := get(t, ts.URL+"/healthz")
	if h["docs"].(float64) != 6 || h["ok"] != true {
		t.Fatalf("resumed healthz = %v", h)
	}
	meta := get(t, ts.URL+"/meta")
	if meta["relation"].(string) != task.Relation {
		t.Fatalf("meta relation = %v", meta["relation"])
	}
	if fleet := get(t, ts.URL+"/admin/tenants"); fleet["default"] != "default" || len(fleet["tenants"].([]any)) != 1 {
		t.Fatalf("/admin/tenants = %v", fleet)
	}
	kb := get(t, ts.URL+"/kb")
	if int(kb["total"].(float64)) != len(kb["tuples"].([]any)) {
		t.Fatalf("kb payload inconsistent: %v", kb)
	}
	// The same session is reachable through its tenant prefix.
	kbT := get(t, ts.URL+"/t/default/kb")
	if int(kbT["total"].(float64)) != int(kb["total"].(float64)) {
		t.Fatalf("/t/default/kb total %v != alias total %v", kbT["total"], kb["total"])
	}
}

// TestServeFreshSession covers the no-snapshot path: buildRegistry
// with an empty store directory serves an empty epoch-0 default
// tenant ready for online ingestion.
func TestServeFreshSession(t *testing.T) {
	rg, err := buildRegistry(t.TempDir(), "electronics", "", "", fonduer.Options{Epochs: 2, Seed: 1, Workers: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	list := rg.List()
	if len(list) != 1 || list[0].Resumed {
		t.Fatalf("fresh registry = %+v", list)
	}
	if list[0].Relation == "" {
		t.Fatal("no default relation resolved")
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()
	h := get(t, ts.URL+"/healthz")
	if h["docs"].(float64) != 0 || h["epoch"].(float64) != 0 {
		t.Fatalf("fresh healthz = %v", h)
	}
}

// TestServeMultiTenantBootstrap covers -tenants parsing and the
// resulting fleet: per-tenant domains, the first spec as the default
// tenant, and spec validation errors (a fourth field is one).
func TestServeMultiTenantBootstrap(t *testing.T) {
	opts := fonduer.Options{Epochs: 1, Seed: 1, Workers: 1}
	rg, err := buildRegistry(t.TempDir(), "electronics", "",
		"ads:ads:, elec:electronics, paleo:paleo", opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	list := rg.List()
	if len(list) != 3 {
		t.Fatalf("tenants = %+v", list)
	}
	byName := map[string]bool{}
	for _, ts := range list {
		byName[ts.Name] = true
		// The first spec is the default, no one else.
		if ts.Default != (ts.Name == "ads") {
			t.Fatalf("default flag wrong on %+v", ts)
		}
	}
	if !byName["elec"] || !byName["ads"] || !byName["paleo"] {
		t.Fatalf("tenant names = %v", byName)
	}

	for _, bad := range []string{"justaname", "x:nosuchdomain", "a:electronics:NoSuchRelation", "e:electronics::disk", "e:electronics::disk:4"} {
		if _, err := buildRegistry(t.TempDir(), "electronics", "", bad, opts, 0, 0); err == nil {
			t.Fatalf("-tenants %q must fail", bad)
		}
	}
}

// TestServeUnknownInputs covers flag validation of the -tenants-less
// single-tenant surface.
func TestServeUnknownInputs(t *testing.T) {
	opts := fonduer.Options{Epochs: 1, Seed: 1, Workers: 1}
	if _, err := buildRegistry("", "nosuchdomain", "", "", opts, 0, 0); err == nil {
		t.Fatal("unknown domain must fail")
	}
	if _, err := buildRegistry("", "electronics", "NoSuchRelation", "", opts, 0, 0); err == nil {
		t.Fatal("unknown relation must fail")
	}
}

// TestShutdownReleasesSpillDirs began as the regression test for the
// shutdown spill leak: before signal handling existed, SIGINT/SIGTERM
// killed the process without running Close, leaking one kbase-spill-*
// directory per disk tenant. A disk tenant now keeps its relations in
// the store and creates no spill directory and no spill file, ingest or
// not; serveUntil must still drain the HTTP server on SIGTERM and close
// every tenant.
func TestShutdownReleasesSpillDirs(t *testing.T) {
	spillArea := t.TempDir()
	t.Setenv("TMPDIR", spillArea) // disk engines os.MkdirTemp here
	fdBaseline, _ := spillFDs(t)

	opts := fonduer.Options{Epochs: 1, Seed: 1, Workers: 1, Backend: "disk"}
	rg, err := buildRegistry("", "electronics", "",
		"a:electronics,b:ads,c:genomics", opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dirs := spillDirs(t, spillArea); len(dirs) != 0 {
		t.Fatalf("three disk tenants created spill directories %v, want none", dirs)
	}
	if held, ok := spillFDs(t); ok && len(held) != len(fdBaseline) {
		t.Fatalf("three empty disk tenants hold spill descriptors: %v", held)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	httpSrv := newHTTPServer(rg.Handler())
	go func() { done <- serveUntil(httpSrv, rg, ln, stop) }()

	// The server is live: a real request round-trips, and an ingest
	// spills nothing.
	base := "http://" + ln.Addr().String()
	h := get(t, base+"/healthz")
	if h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}
	corpus := fonduer.ElectronicsCorpus(5, 2)
	var uploads []map[string]string
	for i, doc := range corpus.Docs {
		uploads = append(uploads, map[string]string{"name": doc.Name, "source": corpus.Sources[i]["html"], "vdoc": corpus.Sources[i]["vdoc"]})
	}
	body, err := json.Marshal(map[string]any{"documents": uploads})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/t/a/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if held, ok := spillFDs(t); ok && len(held) != len(fdBaseline) {
		t.Fatalf("the ingest opened a spill file (spill descriptors %v)", held)
	}
	if dirs := spillDirs(t, spillArea); len(dirs) != 0 {
		t.Fatalf("the ingest created spill directories %v", dirs)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveUntil did not return after SIGTERM")
	}
	if dirs := spillDirs(t, spillArea); len(dirs) != 0 {
		t.Fatalf("shutdown leaked spill directories: %v", dirs)
	}
	if left, ok := spillFDs(t); ok && len(left) != len(fdBaseline) {
		t.Fatalf("shutdown left spill descriptors open: %v", left)
	}
}

// spillFDs lists what this process's open descriptors on kbase spill
// files point at (a disk relation holds one, on its segment, from its
// first sealed page until it is closed); ok is false where there is no
// /proc to read them from.
func spillFDs(t *testing.T) (targets []string, ok bool) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("descriptor checks skipped: %v", err)
		return nil, false
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.Contains(target, "kbase-spill-") {
			targets = append(targets, target)
		}
	}
	return targets, true
}

func spillDirs(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "kbase-spill-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestStalledHeaderClientIsDisconnected: the main listener must not let
// a client that connects, sends half a request header and stalls hold
// its connection forever — it is disconnected once the header timeout
// passes, while another client keeps being served throughout. The
// server comes from the production constructor (newHTTPServer) around a
// trivial handler; only its header timeout is shortened so the test
// does not wait out the real constant.
func TestStalledHeaderClientIsDisconnected(t *testing.T) {
	httpSrv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	if httpSrv.ReadHeaderTimeout != readHeaderTimeout || httpSrv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("main listener timeouts = header %v, idle %v", httpSrv.ReadHeaderTimeout, httpSrv.IdleTimeout)
	}
	httpSrv.ReadHeaderTimeout = 300 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\nX-Half")); err != nil {
		t.Fatal(err)
	}
	// The server hangs up on the stalled client (after at most an error
	// reply): reading to the end of the stream finishes — EOF or reset —
	// well before the client's own 5 s deadline.
	dropped := make(chan error, 1)
	go func() {
		stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.ReadAll(stalled)
		dropped <- err
	}()
	url := "http://" + ln.Addr().String() + "/healthz"
	for served := 0; ; served++ {
		if h := get(t, url); h["ok"] != true {
			t.Fatalf("healthz beside a stalled client = %v", h)
		}
		select {
		case err := <-dropped:
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("stalled client was not disconnected (read: %v)", err)
			}
			if served == 0 {
				t.Fatal("no request was served while the other client stalled")
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}
