package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Len reports how many traces are buffered.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// TestExpositionRoundTrip writes every metric type through the
// exposition path and re-reads it with the strict parser: the
// format is the conformance contract /metrics is tested against.
func TestExpositionRoundTrip(t *testing.T) {
	m := NewMetrics()
	reqs := m.Counter("http_requests_total", "requests served", "tenant", "route", "status")
	reqs.With("a", "kb", "200").Add(3)
	reqs.With("b", `we"ird\ten`+"\n"+`ant`, "500").Inc()
	up := m.Gauge("up", "always one")
	up.With().Set(1)
	dur := m.Histogram("req_seconds", "latency", []float64{0.01, 0.1, 1}, "route")
	h := dur.With("kb")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse:\n%s\nerr: %v", buf.String(), err)
	}
	byName := map[string]ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["http_requests_total"]; f.Type != TypeCounter || len(f.Samples) != 2 {
		t.Fatalf("counter family = %+v", f)
	}
	for _, s := range byName["http_requests_total"].Samples {
		if s.Labels["tenant"] == "a" && s.Value != 3 {
			t.Fatalf("counter a = %v", s.Value)
		}
		if s.Labels["tenant"] == "b" && s.Labels["route"] != `we"ird\ten`+"\n"+`ant` {
			t.Fatalf("label escaping round-trip broke: %q", s.Labels["route"])
		}
	}
	hist := byName["req_seconds"]
	if hist.Type != TypeHistogram {
		t.Fatalf("histogram type = %q", hist.Type)
	}
	// 4 buckets (3 + +Inf) + _sum + _count.
	if len(hist.Samples) != 6 {
		t.Fatalf("histogram samples = %d: %+v", len(hist.Samples), hist.Samples)
	}
	var count, inf float64
	cum := -1.0
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_bucket"):
			if s.Value < cum {
				t.Fatalf("bucket series not cumulative: %v after %v", s.Value, cum)
			}
			cum = s.Value
			if s.Labels["le"] == "+Inf" {
				inf = s.Value
			}
		case strings.HasSuffix(s.Name, "_sum"):
			if math.Abs(s.Value-5.555) > 1e-9 {
				t.Fatalf("sum = %v", s.Value)
			}
		}
	}
	if count != 4 || inf != 4 {
		t.Fatalf("count %v, +Inf bucket %v", count, inf)
	}
}

// TestWritesOnlyObservedChildren pins which children the exposition
// writes: a counter that is not 0, a histogram with an observation and
// a gauge that was Set (to 0 too); a family with none of those prints
// only its HELP and TYPE.
func TestWritesOnlyObservedChildren(t *testing.T) {
	m := NewMetrics()
	reqs := m.Counter("reqs_total", "requests", "route")
	reqs.With("idle")
	reqs.With("busy").Inc()
	state := m.Gauge("state", "state", "tenant")
	state.With("unset")
	state.With("zero").Set(0)
	dur := m.Histogram("dur_seconds", "latency", []float64{1}, "route")
	dur.With("idle")
	m.Counter("never_total", "never", "route").With("idle").Add(0)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse:\n%s\nerr: %v", buf.String(), err)
	}
	got := map[string][]string{}
	for _, f := range fams {
		got[f.Name] = []string{}
		for _, s := range f.Samples {
			got[f.Name] = append(got[f.Name], s.Labels["route"]+s.Labels["tenant"])
		}
	}
	want := map[string][]string{
		"reqs_total":  {"busy"},
		"state":       {"zero"},
		"dur_seconds": {},
		"never_total": {},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("written children %v, want %v\n%s", got, want, buf.String())
	}
}

// TestRegistrationIsIdempotent: N tenants wiring the same registry
// must share families; a conflicting re-registration must panic.
func TestRegistrationIsIdempotent(t *testing.T) {
	m := NewMetrics()
	a := m.Counter("x_total", "x", "tenant")
	b := m.Counter("x_total", "other help ignored", "tenant")
	if a != b {
		t.Fatal("re-registration returned a different family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	m.Gauge("x_total", "x", "tenant")
}

// TestForget drops exactly the children carrying the label value, in
// every family with that label, and a later With starts from zero.
func TestForget(t *testing.T) {
	m := NewMetrics()
	reqs := m.Counter("reqs_total", "requests", "tenant", "route")
	reqs.With("a", "kb").Inc()
	reqs.With("b", "kb").Inc()
	reqs.With("b", "meta").Inc()
	m.Histogram("dur_seconds", "latency", nil, "tenant").With("b").Observe(1)
	m.Gauge("route_b", "a route label, not a tenant", "route").With("b").Set(1)
	m.Gauge("up", "unlabelled").With().Set(1)

	m.Forget("tenant", "b")
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fams {
		for _, s := range f.Samples {
			got = append(got, fmt.Sprintf("%s %v", s.Name, s.Labels))
		}
	}
	want := []string{"reqs_total map[route:kb tenant:a]", "route_b map[route:b]", "up map[]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after Forget: %v, want %v", got, want)
	}
	if v := reqs.With("b", "kb").Value(); v != 0 {
		t.Fatalf("a forgotten series came back at %v, want 0", v)
	}

	// Forget runs beside updates and scrapes.
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g {
				case 0:
					m.Forget("tenant", "b")
				case 1:
					if err := m.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				default:
					reqs.With("b", "kb").Inc()
				}
			}
		}()
	}
	wg.Wait()
}

// TestHistogramConcurrentScrapes hammers one histogram child from
// many writers while scraping continuously: every scrape must parse
// and every parsed histogram must be internally consistent (monotone
// cumulative buckets, +Inf == _count). Run under -race this is the
// torn-state proof for the atomic update scheme.
func TestHistogramConcurrentScrapes(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("work_seconds", "work", []float64{0.001, 0.01, 0.1}, "stage")
	c := h.With("train")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Observe(seed * float64(i%7) * 0.001)
			}
		}(float64(w + 1))
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
		for _, f := range fams {
			assertHistogramConsistent(t, f)
		}
	}
	close(stop)
	wg.Wait()
}

// assertHistogramConsistent checks one parsed histogram family's
// invariants; shared with the serving-layer scrape race test via
// copy (the test helper is tiny and the packages must not depend on
// each other's test internals).
func assertHistogramConsistent(t *testing.T, f ParsedFamily) {
	t.Helper()
	if f.Type != TypeHistogram {
		return
	}
	// Group by the label set minus le.
	key := func(s Sample) string {
		var parts []string
		for k, v := range s.Labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		return strings.Join(parts, ",")
	}
	type state struct {
		lastCum float64
		inf     float64
		count   float64
	}
	st := map[string]*state{}
	get := func(k string) *state {
		if st[k] == nil {
			st[k] = &state{lastCum: -1}
		}
		return st[k]
	}
	for _, s := range f.Samples {
		k := key(s)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			g := get(k)
			if s.Value < g.lastCum {
				t.Fatalf("%s{%s}: cumulative bucket decreased: %v -> %v", f.Name, k, g.lastCum, s.Value)
			}
			g.lastCum = s.Value
			if s.Labels["le"] == "+Inf" {
				g.inf = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			get(k).count = s.Value
		}
	}
	for k, g := range st {
		if g.inf != g.count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v (torn state)", f.Name, k, g.inf, g.count)
		}
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_declared 1\n",
		"# HELP x h\n# TYPE x counter\nx{a=\"1\" 2\n",                // unclosed braces
		"# HELP x h\n# TYPE x counter\nx 1\nx 2\n",                   // duplicate series
		"# HELP x h\n# TYPE x histogram\nx 1\n",                      // histogram without suffix
		"# HELP x h\n# TYPE x wat\nx 1\n",                            // unknown type
		"# HELP x h\n# TYPE x counter\nx notanumber\n",               // bad value
		"# HELP x h\n# TYPE x counter\n# HELP x h\n# TYPE x gauge\n", // duplicate family
	}
	for i, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d parsed: %q", i, in)
		}
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Trace{Kind: "delta", Epoch: uint64(i)})
	}
	got := r.Snapshot()
	if len(got) != 3 || r.Len() != 3 {
		t.Fatalf("ring kept %d traces", len(got))
	}
	for i, want := range []uint64{4, 3, 2} { // newest first
		if got[i].Epoch != want {
			t.Fatalf("snapshot[%d].Epoch = %d, want %d", i, got[i].Epoch, want)
		}
	}
}

func TestSpanTiming(t *testing.T) {
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	sp := NewSpan("train", start, 10, 2, 4)
	if sp.DurationMs < 1 || sp.Name != "train" || sp.RowsIn != 10 || sp.RowsOut != 2 || sp.Workers != 4 {
		t.Fatalf("span = %+v", sp)
	}
}

func TestLoggingLevelsAndJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := InitLogging("info", &buf); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = InitLogging("warn", io.Discard) }()
	Log().Debug("hidden")
	Log().Info("mutation", "tenant", "a", "docs", 3)
	if strings.Contains(buf.String(), "hidden") {
		t.Fatal("debug line emitted at info level")
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line is not JSON: %q", buf.String())
	}
	if line["msg"] != "mutation" || line["tenant"] != "a" || line["docs"] != float64(3) {
		t.Fatalf("log line = %v", line)
	}
	if _, err := ParseLevel("nope"); err == nil {
		t.Fatal("bad level accepted")
	}
	if lv, _ := ParseLevel("Debug"); lv != slog.LevelDebug {
		t.Fatal("level parse is case-sensitive")
	}
}

func TestSlowQueryThreshold(t *testing.T) {
	defer SetSlowQueryThreshold(0)
	SetSlowQueryThreshold(25 * time.Millisecond)
	if got := SlowQueryThreshold(); got != 25*time.Millisecond {
		t.Fatalf("threshold = %v", got)
	}
	SetSlowQueryThreshold(-1)
	if got := SlowQueryThreshold(); got != 0 {
		t.Fatalf("negative threshold = %v", got)
	}
}

func TestBuildInfoPopulated(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" || b.Version == "" || b.Revision == "" {
		t.Fatalf("build info = %+v", b)
	}
}

// TestDebugServer boots the pprof listener on a random port and
// fetches a cheap endpoint: the profiling surface must live on its
// own mux, not the API's.
func TestDebugServer(t *testing.T) {
	addr, stop, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
}
