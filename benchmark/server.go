package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/fonduer-serve from the checkout the harness
// runs in. The go tool's build cache makes every build after the first a
// staleness check plus, at most, a relink.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "fonduer-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fonduer-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building fonduer-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// lockedBuffer collects a child's output; the exec package writes to it
// from its own goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// serverProc is one running fonduer-serve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	output *lockedBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
	// startup is the time from exec to the first 200 from /healthz.
	startup time.Duration
}

// serverFlags are the flags every workload's server shares: four epochs,
// no drift or interval trigger, so training happens only when the driver
// asks for it and the work per run is fixed.
func serverFlags(addr string) []string {
	return []string{
		"-addr", addr, "-domain", domain, "-relation", relation,
		"-epochs", "4", "-seed", "1", "-train-drift", "0", "-train-interval", "0",
		"-log-level", "error",
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches the binary with TMPDIR inside runDir (so the disk
// backend spills inside the checkout) and waits until /healthz answers.
// It fails if the process exits first.
func startServer(bin, runDir string, extra ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(runDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	p := &serverProc{base: "http://" + addr, output: &lockedBuffer{}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append(serverFlags(addr), extra...)...)
	p.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	p.cmd.Stdout, p.cmd.Stderr = p.output, p.output
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	probe := &http.Client{Timeout: 2 * time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.After(120 * time.Second)
	for {
		resp, err := probe.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.startup = time.Since(t0)
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("fonduer-serve exited before /healthz answered: %v\n%s", p.err, p.output)
		case <-deadline:
			p.kill()
			return nil, fmt.Errorf("fonduer-serve did not answer /healthz in time\n%s", p.output)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// alive reports whether the process is still running.
func (p *serverProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGINT — the server drains and releases its spill
// directories — and waits for the exit.
func (p *serverProc) stop() error {
	if !p.alive() {
		return fmt.Errorf("fonduer-serve exited early: %v\n%s", p.err, p.output)
	}
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return err
	}
	select {
	case <-p.exited:
		if p.err != nil {
			return fmt.Errorf("fonduer-serve exit after SIGINT: %v\n%s", p.err, p.output)
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("fonduer-serve ignored SIGINT for 30 s; killed")
	}
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// ---- The HTTP client side.

// newHTTPClient returns a keep-alive client holding at most conns
// connections to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// caller issues requests for one closed- or open-loop connection and
// reuses its body buffer between them.
type caller struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (c *caller) do(method, path string, body []byte) (status int, resp []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(r.Body); err != nil {
		return r.StatusCode, nil, err
	}
	return r.StatusCode, c.buf.Bytes(), nil
}

func (c *caller) get(path string) (int, []byte, error) { return c.do(http.MethodGet, path, nil) }

// getJSON fetches path and decodes a 200 response into v.
func (c *caller) getJSON(path string, v any) error {
	return c.callJSON(http.MethodGet, path, nil, v)
}

// callJSON sends a request and decodes a 200 response into v.
func (c *caller) callJSON(method, path string, body []byte, v any) error {
	status, resp, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if err := json.Unmarshal(resp, v); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}
