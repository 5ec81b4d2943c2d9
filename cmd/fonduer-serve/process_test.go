package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	fonduer "repro"
)

// serveProc is one real fonduer-serve process under test.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	mu   sync.Mutex
	out  bytes.Buffer // stdout + stderr
}

func (p *serveProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *serveProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startProc launches the built binary on a free loopback port, with a
// private TMPDIR for the disk kind's spill, and waits for /healthz.
func startProc(t *testing.T, bin string, flags ...string) *serveProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	p := &serveProc{base: "http://" + addr}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-domain", "electronics",
		"-epochs", "2", "-seed", "1", "-workers", "1", "-log-level", "warn"}, flags...)...)
	p.cmd.Env = append(os.Environ(), "TMPDIR="+t.TempDir())
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill(); p.cmd.Wait() })
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fonduer-serve %v did not answer /healthz:\n%s", flags, p.output())
		}
	}
}

// stop sends SIGTERM and waits for the drain-and-close shutdown.
func (p *serveProc) stop(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("fonduer-serve exited with %v:\n%s", err, p.output())
	}
}

func (p *serveProc) do(t *testing.T, method, path string, body any, want int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, p.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, p.output())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d (%s)", method, path, resp.StatusCode, want, out)
	}
	return out
}

func kbTuples(t *testing.T, body []byte) any {
	t.Helper()
	var kb struct {
		Tuples any `json:"tuples"`
		Total  int `json:"total"`
	}
	if err := json.Unmarshal(body, &kb); err != nil {
		t.Fatal(err)
	}
	if kb.Total == 0 {
		t.Fatalf("empty KB: %s", body)
	}
	return kb.Tuples
}

// buildServe builds the fonduer-serve binary into a test directory.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fonduer-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUnknownBackendRefused: -backend is the one place a backend name
// is validated. An unknown one exits 1 before any tenant is built, with
// a message naming the flag and the valid kinds, not a panic.
func TestUnknownBackendRefused(t *testing.T) {
	bin := buildServe(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-backend", "tape")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-backend tape: %v, want exit status 1\n%s", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "-backend") || !strings.Contains(msg, "memory, disk or columnar") {
		t.Fatalf("stderr does not name the flag and the valid kinds:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine ") {
		t.Fatalf("-backend tape panicked:\n%s", msg)
	}
}

// TestDiskProcessResumeMatchesMemory drives the real binary through the
// one path a resident-document budget used to change — resume. A
// process on -backend disk, started with the deprecated
// -max-resident-docs flag (warned about once, otherwise ignored),
// ingests, retrains, shrugs off two hostile uploads, snapshots and is
// restarted from the snapshot; it must serve the tuples it served
// before the restart, and /kb bytes identical to a memory-kind process
// resumed from the same snapshot.
func TestDiskProcessResumeMatchesMemory(t *testing.T) {
	bin := buildServe(t)
	store := t.TempDir()
	const deprecation = "-max-resident-docs is deprecated"
	diskFlags := []string{"-store", store, "-backend", "disk", "-max-resident-docs", "16"}

	disk := startProc(t, bin, diskFlags...)
	corpus := fonduer.ElectronicsCorpus(7, 6)
	for i := 0; i < len(corpus.Docs); i += 2 {
		var uploads []map[string]string
		for k := i; k < i+2; k++ {
			uploads = append(uploads, map[string]string{"name": corpus.Docs[k].Name, "format": "html",
				"source": corpus.Sources[k]["html"], "vdoc": corpus.Sources[k]["vdoc"]})
		}
		disk.do(t, http.MethodPost, "/ingest", map[string]any{"documents": uploads}, http.StatusOK)
	}
	// Ingests publish delta epochs; the retrain serves the corpus under a
	// model trained on all of it, as the restarted process will.
	disk.do(t, http.MethodPost, "/admin/train", nil, http.StatusOK)
	var meta struct {
		Storage map[string]any `json:"storage"`
	}
	if err := json.Unmarshal(disk.do(t, http.MethodGet, "/meta", nil, http.StatusOK), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Storage["backend"] != "disk" || meta.Storage["docs"] != float64(len(corpus.Docs)) {
		t.Fatalf("/meta storage = %v", meta.Storage)
	}
	for key := range meta.Storage {
		if strings.Contains(strings.ToLower(key), "residentdocs") {
			t.Fatalf("/meta storage still reports %q: %v", key, meta.Storage)
		}
	}
	// Two hostile uploads leave no mark: HTML carrying the store's
	// reserved separator byte (it used to be merged, answered 409, and
	// made this very snapshot unresumable) is refused with 400, and 900 KB
	// of unclosed elements classifies on an ordinary stack.
	evil := map[string]string{"name": "evil", "source": strings.Replace(corpus.Sources[0]["html"], "<td>", "<td>\x1f", 1)}
	disk.do(t, http.MethodPost, "/ingest", map[string]any{"documents": []any{evil}}, http.StatusBadRequest)
	disk.do(t, http.MethodPost, "/classify", map[string]string{"name": "bomb", "source": strings.Repeat("<b>", 300_000) + "x"}, http.StatusOK)
	var health struct {
		OK   bool `json:"ok"`
		Docs int  `json:"docs"`
	}
	if err := json.Unmarshal(disk.do(t, http.MethodGet, "/healthz", nil, http.StatusOK), &health); err != nil || !health.OK || health.Docs != len(corpus.Docs) {
		t.Fatalf("/healthz after the hostile uploads: %+v (%v)", health, err)
	}
	before := kbTuples(t, disk.do(t, http.MethodGet, "/kb", nil, http.StatusOK))
	disk.do(t, http.MethodPost, "/admin/snapshot", map[string]any{}, http.StatusOK)
	disk.stop(t)
	if n := strings.Count(disk.output(), deprecation); n != 1 {
		t.Fatalf("deprecation logged %d times, want once:\n%s", n, disk.output())
	}

	resumed := startProc(t, bin, diskFlags...)
	if !strings.Contains(resumed.output(), "resumed: 6 documents") {
		t.Fatalf("restart did not resume the snapshot:\n%s", resumed.output())
	}
	kbDisk := resumed.do(t, http.MethodGet, "/kb", nil, http.StatusOK)
	if after := kbTuples(t, kbDisk); !reflect.DeepEqual(before, after) {
		t.Fatalf("served tuples moved across the restart\nbefore: %v\n after: %v", before, after)
	}
	memory := startProc(t, bin, "-store", store, "-backend", "memory")
	if kbMem := memory.do(t, http.MethodGet, "/kb", nil, http.StatusOK); !bytes.Equal(kbDisk, kbMem) {
		t.Fatalf("/kb differs between the resumed disk and memory processes\n  disk: %.300s\nmemory: %.300s", kbDisk, kbMem)
	}
	if strings.Contains(memory.output(), deprecation) {
		t.Fatalf("deprecation logged without the flag:\n%s", memory.output())
	}
	resumed.stop(t)
	memory.stop(t)
}
