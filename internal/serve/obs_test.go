package serve_test

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The observability contract of the serving layer: /metrics is valid
// Prometheus text exposition with stable names and bounded
// cardinality, scrapes stay consistent while ingests run, publish
// traces surface in /meta and /admin/traces, and /healthz carries
// uptime and build identity.

var promName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metricRoutes is the fixed route table the HTTP metrics may label;
// anything outside it is a cardinality leak.
var metricRoutes = map[string]bool{
	"/healthz": true, "/kb": true, "/candidates": true, "/marginals": true,
	"/lfmetrics": true, "/features": true, "/meta": true, "/ingest": true,
	"/classify": true, "/admin/snapshot": true, "/admin/train": true, "/admin/traces": true,
	"/admin/tenants": true, "/admin/tenants/{name}": true, "/metrics": true,
}

var metricStatuses = map[string]bool{
	"200": true, "201": true, "400": true, "404": true, "409": true,
	"500": true, "503": true, "other": true,
}

func scrape(t *testing.T, url string) []obs.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return fams
}

// checkHistograms asserts every histogram family's internal
// consistency: monotone cumulative buckets and +Inf == _count per
// series — the torn-state detector the concurrent-scrape test leans
// on.
func checkHistograms(t *testing.T, fams []obs.ParsedFamily) {
	t.Helper()
	for _, f := range fams {
		if f.Type != obs.TypeHistogram {
			continue
		}
		type state struct {
			lastCum float64
			inf     float64
			count   float64
		}
		st := map[string]*state{}
		seriesKey := func(s obs.Sample) string {
			parts := make([]string, 0, len(s.Labels))
			for k, v := range s.Labels {
				if k != "le" {
					parts = append(parts, k+"="+v)
				}
			}
			sort.Strings(parts)
			return strings.Join(parts, ",")
		}
		for _, s := range f.Samples {
			k := seriesKey(s)
			if st[k] == nil {
				st[k] = &state{lastCum: -1}
			}
			g := st[k]
			switch {
			case strings.HasSuffix(s.Name, "_bucket"):
				if s.Value < g.lastCum {
					t.Fatalf("%s{%s}: cumulative bucket decreased: %v -> %v", f.Name, k, g.lastCum, s.Value)
				}
				g.lastCum = s.Value
				if s.Labels["le"] == "+Inf" {
					g.inf = s.Value
				}
			case strings.HasSuffix(s.Name, "_count"):
				g.count = s.Value
			}
		}
		for k, g := range st {
			if g.inf != g.count {
				t.Fatalf("%s{%s}: +Inf bucket %v != _count %v (torn scrape)", f.Name, k, g.inf, g.count)
			}
		}
	}
}

// TestMetricsExpositionConformance drives a two-tenant registry
// through ingests and reads, then asserts the /metrics contract.
func TestMetricsExpositionConformance(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1, Workers: 2})
	for _, tc := range []serve.TenantConfig{
		{Name: "elec", Domain: "electronics"},
		{Name: "ads", Domain: "ads"},
	} {
		if _, err := rg.Create(tc); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	elec := synth.Electronics(61, 4)
	var batch []serve.DocumentUpload
	for i := 0; i < 3; i++ {
		batch = append(batch, uploadFor(elec, i))
	}
	postJSON(t, ts.URL+"/t/elec/ingest", map[string]any{"documents": batch}, http.StatusOK)

	// Exercise tenant routes (including a 404 and a 400) and fleet
	// routes so the counter families have series to check.
	getJSON(t, ts.URL+"/t/elec/kb", http.StatusOK)
	getJSON(t, ts.URL+"/t/elec/kb?nosuchcolumn=1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/t/ads/healthz", http.StatusOK)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	getJSON(t, ts.URL+"/meta", http.StatusOK)

	fams := scrape(t, ts.URL+"/metrics")
	byName := map[string]obs.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	// Stable names: the exported inventory, by exact name.
	for _, want := range []string{
		"fonduer_http_requests_total",
		"fonduer_http_request_duration_seconds",
		"fonduer_publish_total",
		"fonduer_ingest_publish_duration_seconds",
		"fonduer_pipeline_stage_duration_seconds",
		"fonduer_train_epochs_total",
		"fonduer_train_duration_seconds",
		"fonduer_uptime_seconds",
		"fonduer_build_info",
		"fonduer_tenants",
		"fonduer_go_heap_live_bytes",
		"fonduer_go_heap_objects_bytes",
		"fonduer_go_gc_cpu_seconds_total",
		"fonduer_tenant_degraded",
		"fonduer_served_epoch",
		"fonduer_model_generation",
		"fonduer_train_lag_epochs",
		"fonduer_tenant_docs",
		"fonduer_tenant_candidates",
		"fonduer_tenant_kb_entries",
		"fonduer_store_feature_rows",
		"fonduer_store_feature_dictionary_size",
		"fonduer_kbase_index_hits_total",
		"fonduer_kbase_full_scans_total",
		"fonduer_response_errors_total",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metric family %q missing from /metrics", want)
		}
	}

	// Every family name is prefixed and legal; every histogram is
	// internally consistent.
	for _, f := range fams {
		if !promName.MatchString(f.Name) {
			t.Errorf("illegal metric name %q", f.Name)
		}
		if !strings.HasPrefix(f.Name, "fonduer_") {
			t.Errorf("metric %q lacks the fonduer_ namespace", f.Name)
		}
	}
	checkHistograms(t, fams)

	// Cardinality: HTTP series labels come only from the fixed sets —
	// tenants (plus _fleet), the route table, the status list.
	tenantSet := map[string]bool{"elec": true, "ads": true, "_fleet": true}
	reqs := byName["fonduer_http_requests_total"]
	if len(reqs.Samples) == 0 {
		t.Fatal("no request counter series")
	}
	if max := len(tenantSet) * len(metricRoutes) * len(metricStatuses); len(reqs.Samples) > max {
		t.Fatalf("%d request series exceeds the tenants×routes×statuses bound %d", len(reqs.Samples), max)
	}
	for _, s := range reqs.Samples {
		if !tenantSet[s.Labels["tenant"]] {
			t.Errorf("request series with unexpected tenant %q", s.Labels["tenant"])
		}
		if !metricRoutes[s.Labels["route"]] {
			t.Errorf("request series with unexpected route %q", s.Labels["route"])
		}
		if !metricStatuses[s.Labels["status"]] {
			t.Errorf("request series with unexpected status %q", s.Labels["status"])
		}
	}

	// The counters actually counted: the elec /kb read and the 400.
	find := func(f obs.ParsedFamily, want map[string]string) float64 {
	next:
		for _, s := range f.Samples {
			for k, v := range want {
				if s.Labels[k] != v {
					continue next
				}
			}
			return s.Value
		}
		return -1
	}
	if v := find(reqs, map[string]string{"tenant": "elec", "route": "/kb", "status": "200"}); v < 1 {
		t.Errorf("elec /kb 200 counter = %v", v)
	}
	if v := find(reqs, map[string]string{"tenant": "elec", "route": "/kb", "status": "400"}); v < 1 {
		t.Errorf("elec /kb 400 counter = %v", v)
	}
	if v := find(byName["fonduer_served_epoch"], map[string]string{"tenant": "elec"}); v != 1 {
		t.Errorf("elec served epoch gauge = %v", v)
	}
	if v := find(byName["fonduer_publish_total"], map[string]string{"tenant": "elec", "kind": "delta"}); v != 1 {
		t.Errorf("elec delta publish counter = %v", v)
	}
	// The memory series: the process has a heap, and the two store gauges
	// are the Features relation as the tenant's own routes report it.
	if v := find(byName["fonduer_go_heap_objects_bytes"], nil); v <= 0 {
		t.Errorf("heap objects gauge = %v", v)
	}
	if v := find(byName["fonduer_go_heap_live_bytes"], nil); v < 0 {
		t.Errorf("live heap gauge = %v", v)
	}
	feats := getJSON(t, ts.URL+"/t/elec/features", http.StatusOK)
	if v, want := find(byName["fonduer_store_feature_dictionary_size"], map[string]string{"tenant": "elec"}), feats["distinctFeatures"].(float64); v != want || want == 0 {
		t.Errorf("elec feature dictionary gauge = %v, /features reports distinctFeatures %v", v, want)
	}
	meta := getJSON(t, ts.URL+"/t/elec/meta", http.StatusOK)
	if v, want := find(byName["fonduer_store_feature_rows"], map[string]string{"tenant": "elec"}), meta["tables"].(map[string]any)["features"].(float64); v != want || want == 0 {
		t.Errorf("elec feature rows gauge = %v, /meta reports %v feature rows", v, want)
	}
	if v := find(byName["fonduer_store_feature_rows"], map[string]string{"tenant": "ads"}); v != 0 {
		t.Errorf("ads feature rows gauge = %v before any ingest", v)
	}
	// Stage durations observed with stage names from the pipeline enum.
	stages := map[string]bool{}
	for _, s := range byName["fonduer_pipeline_stage_duration_seconds"].Samples {
		if st := s.Labels["stage"]; st != "" {
			stages[st] = true
		}
	}
	for _, want := range []string{"extract", "featurize", "supervise", "train", "classify", "materializeKB"} {
		if !stages[want] {
			t.Errorf("no stage duration series for %q (have %v)", want, stages)
		}
	}

	// Scraping twice yields a parseable, consistent exposition again
	// (gauge resampling must not mint or corrupt series).
	checkHistograms(t, scrape(t, ts.URL+"/metrics"))
}

// TestPlanCountersNeverDecrease pins the planner counters on /metrics
// to the filtered /kb reads a tenant has served: an ingest publishes a
// new KB table, and the counts must carry across it, as /meta reports
// them too.
func TestPlanCountersNeverDecrease(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1, Workers: 2})
	if _, err := rg.Create(serve.TenantConfig{Name: "elec", Domain: "electronics"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()
	elec := synth.Electronics(63, 4)
	ingest := func(docs ...int) {
		var batch []serve.DocumentUpload
		for _, i := range docs {
			batch = append(batch, uploadFor(elec, i))
		}
		postJSON(t, ts.URL+"/t/elec/ingest", map[string]any{"documents": batch}, http.StatusOK)
	}
	counts := func() (index, scans float64) {
		t.Helper()
		for _, f := range scrape(t, ts.URL+"/metrics") {
			for _, s := range f.Samples {
				switch {
				case s.Labels["tenant"] != "elec":
				case f.Name == "fonduer_kbase_index_hits_total":
					index = s.Value
				case f.Name == "fonduer_kbase_full_scans_total":
					scans = s.Value
				}
			}
		}
		storage := getJSON(t, ts.URL+"/t/elec/meta", http.StatusOK)["storage"].(map[string]any)
		if storage["indexHits"] != index || storage["fullScans"] != scans {
			t.Fatalf("/meta counts %v index, %v scans; /metrics %v, %v", storage["indexHits"], storage["fullScans"], index, scans)
		}
		return index, scans
	}

	ingest(0, 1, 2)
	col := getJSON(t, ts.URL+"/t/elec/kb", http.StatusOK)["columns"].([]any)[0].(string)
	for i := 0; i < 5; i++ { // the first read scans, the planner indexes the rest
		getJSON(t, ts.URL+"/t/elec/kb?"+col+"=x", http.StatusOK)
	}
	index, scans := counts()
	if index != 4 || scans != 1 {
		t.Fatalf("after five filtered reads: %v index, %v scans; want 4, 1", index, scans)
	}
	ingest(3)
	if index2, scans2 := counts(); index2 < index || scans2 < scans {
		t.Fatalf("an ingest took the counters from %v index, %v scans to %v, %v", index, scans, index2, scans2)
	}
}

// TestConcurrentScrapesDuringIngest proves torn-free scrapes under
// -race: readers hammer /metrics and /kb while a writer ingests; every
// scrape must parse and every histogram must be internally consistent.
func TestConcurrentScrapesDuringIngest(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1, Workers: 2})
	if _, err := rg.Create(serve.TenantConfig{Name: "elec", Domain: "electronics"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	corpus := synth.Electronics(62, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: one batch per epoch, serialized by the writer goroutine
		defer wg.Done()
		defer close(done)
		for i := 0; i < 8; i++ {
			postJSON(t, ts.URL+"/t/elec/ingest",
				map[string]any{"documents": []serve.DocumentUpload{uploadFor(corpus, i)}}, http.StatusOK)
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				checkHistograms(t, scrape(t, ts.URL+"/metrics"))
				getJSON(t, ts.URL+"/t/elec/kb", http.StatusOK)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	fams := scrape(t, ts.URL+"/metrics")
	for _, f := range fams {
		if f.Name != "fonduer_served_epoch" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["tenant"] == "elec" && s.Value != 8 {
				t.Fatalf("served epoch after 8 ingests = %v", s.Value)
			}
		}
	}
}

// TestTracesAndHealthObservability checks the trace surfaces and the
// uptime/build fields.
func TestTracesAndHealthObservability(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1, Workers: 2})
	if _, err := rg.Create(serve.TenantConfig{Name: "elec", Domain: "electronics"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	corpus := synth.Electronics(63, 3)
	var batch []serve.DocumentUpload
	for i := 0; i < 3; i++ {
		batch = append(batch, uploadFor(corpus, i))
	}
	ingestTrained(t, ts.URL+"/t/elec", map[string]any{"documents": batch})

	// Tenant ring: initial build, the ingest's delta epoch and the
	// retrain, newest first, with spans.
	tr := getJSON(t, ts.URL+"/t/elec/admin/traces", http.StatusOK)
	traces := tr["traces"].([]any)
	if len(traces) != 3 {
		t.Fatalf("trace ring has %d entries, want 3 (initial + delta + train)", len(traces))
	}
	for i, want := range []struct {
		kind  string
		epoch float64
		docs  any // the initial build of an empty session omits its 0
		spans []string
	}{
		{"train", 1, 3.0, []string{"index", "train", "classify", "materializeKB"}},
		{"delta", 1, 3.0, []string{"extract", "featurize", "supervise", "merge", "hydrateDelta", "deltaClassify", "materializeKB"}},
		{"initial", 0, nil, nil},
	} {
		trace := traces[i].(map[string]any)
		if trace["kind"] != want.kind || trace["epoch"] != want.epoch || trace["docs"] != want.docs {
			t.Fatalf("trace %d = %v, want kind %s at epoch %v with %v docs", i, trace, want.kind, want.epoch, want.docs)
		}
		names := map[string]bool{}
		for _, sp := range trace["spans"].([]any) {
			s := sp.(map[string]any)
			names[s["name"].(string)] = true
			if _, ok := s["durationMs"].(float64); !ok {
				t.Fatalf("span without duration: %v", s)
			}
		}
		for _, span := range want.spans {
			if !names[span] {
				t.Errorf("%s trace lacks span %q (have %v)", want.kind, span, names)
			}
		}
	}

	// /meta carries the most recent trace.
	meta := getJSON(t, ts.URL+"/t/elec/meta", http.StatusOK)
	mt, ok := meta["trace"].(map[string]any)
	if !ok || mt["kind"] != "train" {
		t.Fatalf("/meta trace section = %v", meta["trace"])
	}

	// The un-prefixed route answers the default tenant's ring.
	if alias := getJSON(t, ts.URL+"/admin/traces", http.StatusOK); !reflect.DeepEqual(alias, tr) {
		t.Fatalf("un-prefixed traces = %v, want elec's ring %v", alias, tr)
	}

	// Uptime and build identity on tenant and fleet healthz.
	for _, url := range []string{ts.URL + "/t/elec/healthz", ts.URL + "/healthz"} {
		h := getJSON(t, url, http.StatusOK)
		if up, ok := h["uptimeSeconds"].(float64); !ok || up < 0 {
			t.Fatalf("%s uptimeSeconds = %v", url, h["uptimeSeconds"])
		}
		b, ok := h["build"].(map[string]any)
		if !ok {
			t.Fatalf("%s build = %v", url, h["build"])
		}
		for _, key := range []string{"version", "revision", "go"} {
			if v, _ := b[key].(string); v == "" {
				t.Fatalf("%s build[%s] = %v", url, key, b[key])
			}
		}
	}

	// The fleet's pseudo-tenant name is refused as a real tenant's.
	if _, err := rg.Create(serve.TenantConfig{Name: "_fleet", Domain: "electronics"}); err == nil {
		t.Fatal("reserved tenant name _fleet was accepted")
	}
}

// TestTrainWhenCaughtUp: after one ingest, two POST /admin/train answer
// the same generation, and only the first trains and publishes. The
// ingest-publish histogram counts the delta publish alone, while
// fonduer_publish_total counts every publication by kind.
func TestTrainWhenCaughtUp(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1, Workers: 2})
	if _, err := rg.Create(serve.TenantConfig{Name: "elec", Domain: "electronics"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	corpus := synth.Electronics(63, 3)
	var batch []serve.DocumentUpload
	for i := 0; i < 3; i++ {
		batch = append(batch, uploadFor(corpus, i))
	}
	postJSON(t, ts.URL+"/t/elec/ingest", map[string]any{"documents": batch}, http.StatusOK)
	for i := 0; i < 2; i++ {
		if got := postJSON(t, ts.URL+"/t/elec/admin/train", nil, http.StatusOK); got["generation"] != 1.0 || got["epoch"] != 1.0 {
			t.Fatalf("train %d answered %v, want generation 1 at epoch 1", i, got)
		}
	}
	trains := 0
	for _, tr := range getJSON(t, ts.URL+"/t/elec/admin/traces", http.StatusOK)["traces"].([]any) {
		if tr.(map[string]any)["kind"] == "train" {
			trains++
		}
	}
	if trains != 1 {
		t.Fatalf("%d train traces, want 1", trains)
	}

	counts := map[string]float64{}
	for _, f := range scrape(t, ts.URL+"/metrics") {
		for _, s := range f.Samples {
			switch {
			case s.Labels["tenant"] != "elec" || s.Value == 0:
			case s.Name == "fonduer_publish_total":
				counts[s.Labels["kind"]] = s.Value
			case s.Name == "fonduer_ingest_publish_duration_seconds_count":
				counts["ingest_publish_duration_count"] = s.Value
			}
		}
	}
	want := map[string]float64{"initial": 1, "delta": 1, "train": 1, "ingest_publish_duration_count": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("publish counts %v, want %v", counts, want)
	}
}

// TestDeleteTenantDropsItsSeries: deleting a tenant takes every series
// labelled with its name out of /metrics — the per-tenant HTTP and
// publish families as well as the scrape-time state gauges — and a
// tenant created again under that name starts its counters from zero.
func TestDeleteTenantDropsItsSeries(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1, Workers: 2})
	for _, name := range []string{"a", "b"} {
		if _, err := rg.Create(serve.TenantConfig{Name: name, Domain: "electronics"}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()
	// series returns the samples labelled tenant="b", by family.
	series := func() map[string][]obs.Sample {
		out := map[string][]obs.Sample{}
		for _, f := range scrape(t, ts.URL+"/metrics") {
			for _, s := range f.Samples {
				if s.Labels["tenant"] == "b" {
					out[f.Name] = append(out[f.Name], s)
				}
			}
		}
		return out
	}
	// kbReads is b's count of 200 responses on /kb.
	kbReads := func(got map[string][]obs.Sample) float64 {
		for _, s := range got["fonduer_http_requests_total"] {
			if s.Labels["route"] == "/kb" && s.Labels["status"] == "200" {
				return s.Value
			}
		}
		return -1
	}

	col := getJSON(t, ts.URL+"/t/b/kb", http.StatusOK)["columns"].([]any)[0].(string)
	// Two filtered reads, a scan then an index hit: a plan counter's
	// child is written once it is not 0.
	for i := 0; i < 2; i++ {
		getJSON(t, ts.URL+"/t/b/kb?"+col+"=x", http.StatusOK)
	}
	before := series()
	for _, fam := range []string{"fonduer_http_requests_total", "fonduer_model_generation", "fonduer_kbase_index_hits_total"} {
		if len(before[fam]) == 0 {
			t.Fatalf("no %s series for tenant b before the delete", fam)
		}
	}
	if n := kbReads(before); n != 3 {
		t.Fatalf("b's /kb 200 count = %v, want 3", n)
	}

	// Scrapes run beside the delete: none may revive b's series.
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	deleteReq(t, ts.URL+"/admin/tenants/b", http.StatusOK)
	close(stop)
	<-scraped
	if after := series(); len(after) != 0 {
		var fams []string
		for fam := range after {
			fams = append(fams, fam)
		}
		sort.Strings(fams)
		t.Fatalf("tenant b deleted, yet /metrics still has its series in %v", fams)
	}

	if _, err := rg.Create(serve.TenantConfig{Name: "b", Domain: "electronics"}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/t/b/kb", http.StatusOK)
	again := series()
	if len(again["fonduer_model_generation"]) == 0 {
		t.Fatal("re-created tenant b has no state series")
	}
	if n := kbReads(again); n != 1 {
		t.Fatalf("re-created b's /kb 200 count = %v, want 1 (a fresh series)", n)
	}
}

// TestIdleScrapeIsSmall: a fresh 3-tenant registry writes fewer than
// 600 series, since the (tenant, route, status) children resolved at
// route registration are written only once observed; one request then
// shows up in its counter and histogram children.
func TestIdleScrapeIsSmall(t *testing.T) {
	rg := newTestRegistry(t, "", core.Options{Seed: 3, Epochs: 1})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := rg.Create(serve.TenantConfig{Name: name, Domain: "electronics"}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()
	series := 0
	for _, f := range scrape(t, ts.URL+"/metrics") {
		series += len(f.Samples)
	}
	if series >= 600 {
		t.Fatalf("a fresh 3-tenant registry writes %d series, want < 600", series)
	}

	getJSON(t, ts.URL+"/t/b/kb", http.StatusOK)
	var reqs, count float64
	for _, f := range scrape(t, ts.URL+"/metrics") {
		for _, s := range f.Samples {
			if s.Labels["tenant"] != "b" || s.Labels["route"] != "/kb" || s.Labels["status"] != "200" {
				continue
			}
			switch s.Name {
			case "fonduer_http_requests_total":
				reqs = s.Value
			case "fonduer_http_request_duration_seconds_count":
				count = s.Value
			}
		}
	}
	if reqs != 1 || count != 1 {
		t.Fatalf("after one /t/b/kb: requests_total %v, duration _count %v; want 1, 1", reqs, count)
	}
	t.Logf("%d series on a fresh 3-tenant registry", series)
}
