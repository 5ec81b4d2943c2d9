package serve

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Metrics wiring for the serving layer. Every family is registered
// once per obs.Metrics registry (registration is get-or-create) and
// every label value is drawn from a bounded set — tenant names, the
// fixed route table, a fixed status-code list, the pipeline's stage
// enum — so cardinality is tenants × routes × statuses at worst,
// never request-derived.
//
// The hot path is pure atomics: per-route children are resolved once
// at route-registration time (instrument), so serving a request does
// one map lookup on the status int and two atomic updates. Gauges
// that mirror fleet state (epochs, doc counts, pool utilization) are
// sampled at scrape time instead of being maintained on writes.

// trackedStatuses is the fixed status label set; anything else is
// folded into "other" so a misbehaving handler can't mint series.
var trackedStatuses = []int{
	http.StatusOK, http.StatusCreated,
	http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
	http.StatusInternalServerError, http.StatusServiceUnavailable,
}

// Response-path error counters (satellite b): writeJSON used to
// swallow encode failures and client disconnects silently. They are
// package-level atomics — writeJSON has no server receiver — sampled
// into fonduer_response_errors_total at scrape time.
var (
	respErrEncode atomic.Int64 // JSON marshalling failed mid-body
	respErrWrite  atomic.Int64 // client gone: connection write error
)

// serverMetrics is one registry's per-tenant family set, shared by
// every Server wired to the same obs.Metrics.
type serverMetrics struct {
	m *obs.Metrics

	httpReqs    *obs.Family // counter  {tenant,route,status}
	httpDur     *obs.Family // histogram{tenant,route,status}
	publishDur  *obs.Family // histogram{tenant}: ingest accepted -> epoch published
	stageDur    *obs.Family // histogram{tenant,stage}
	trainEpochs *obs.Family // counter  {tenant}
	trainDur    *obs.Family // histogram{tenant}
	publishes   *obs.Family // counter  {tenant,kind}: initial|ingest|failed
	panics      *obs.Family // counter  {tenant,where}: writer|trainer|http
	indexHits   *obs.Family // counter  {tenant}: filtered /kb reads by plan
	fullScans   *obs.Family // counter  {tenant}
}

func newServerMetrics(m *obs.Metrics) *serverMetrics {
	return &serverMetrics{
		m: m,
		httpReqs: m.Counter("fonduer_http_requests_total",
			"HTTP requests served, by tenant, route and status.",
			"tenant", "route", "status"),
		httpDur: m.Histogram("fonduer_http_request_duration_seconds",
			"HTTP request latency in seconds, by tenant, route and status.",
			obs.DefDurationBuckets, "tenant", "route", "status"),
		publishDur: m.Histogram("fonduer_ingest_publish_duration_seconds",
			"Wall time from an accepted ingest batch to its epoch being published.",
			obs.DefStageBuckets, "tenant"),
		stageDur: m.Histogram("fonduer_pipeline_stage_duration_seconds",
			"Per-stage pipeline wall time for publish runs (extract, featurize, supervise, train, ...).",
			obs.DefStageBuckets, "tenant", "stage"),
		trainEpochs: m.Counter("fonduer_train_epochs_total",
			"Model training epochs run across all publishes.",
			"tenant"),
		trainDur: m.Histogram("fonduer_train_duration_seconds",
			"Model training wall time per publish run.",
			obs.DefStageBuckets, "tenant"),
		publishes: m.Counter("fonduer_publish_total",
			"Epoch publications by kind: initial, ingest, delta, train, or failed.",
			"tenant", "kind"),
		panics: m.Counter("fonduer_panics_total",
			"Panics recovered at the tenant boundary: on a writer turn, a trainer run or in an HTTP handler.",
			"tenant", "where"),
		indexHits: m.Counter("fonduer_kbase_index_hits_total",
			"Filtered /kb reads answered through a lazy hash index.",
			"tenant"),
		fullScans: m.Counter("fonduer_kbase_full_scans_total",
			"Filtered /kb reads answered by a scan of every row.",
			"tenant"),
	}
}

// statusRecorder captures the handler's status code (200 when the
// handler never calls WriteHeader explicitly) and whether the response
// has begun.
type statusRecorder struct {
	http.ResponseWriter
	status int
	begun  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status, sr.begun = code, true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	sr.begun = true
	return sr.ResponseWriter.Write(p)
}

// instrument wraps one route's handler with the request counter and
// latency histogram. Children for the fixed status set are resolved
// here, at registration — the per-request cost is a small map lookup
// plus two atomic updates, keeping the lock-free read path lock-free.
// A handler panic, which net/http would isolate silently, is counted in
// fonduer_panics_total{where="http"}, logged with its stack and
// answered 500 (counted as such); once the response has begun the
// connection is aborted instead.
func (sm *serverMetrics) instrument(tenant, route string, h http.HandlerFunc) http.HandlerFunc {
	type cell struct{ reqs, dur *obs.Child }
	cells := make(map[int]cell, len(trackedStatuses))
	for _, st := range trackedStatuses {
		code := strconv.Itoa(st)
		cells[st] = cell{
			reqs: sm.httpReqs.With(tenant, route, code),
			dur:  sm.httpDur.With(tenant, route, code),
		}
	}
	other := cell{
		reqs: sm.httpReqs.With(tenant, route, "other"),
		dur:  sm.httpDur.With(tenant, route, "other"),
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			p := recover()
			if p != nil && p != http.ErrAbortHandler {
				sm.countPanic(tenant, "http", p)
				if !sr.begun {
					writeError(sr, http.StatusInternalServerError, "internal error in %s", route)
					p = nil
				}
			}
			c, ok := cells[sr.status]
			if !ok {
				c = other
			}
			c.reqs.Inc()
			c.dur.Observe(time.Since(t0).Seconds())
			if p != nil {
				// Not a new failure: the handler's panic, re-raised as the
				// sentinel net/http aborts a connection on without logging —
				// mid-response there is nothing else left to answer with.
				panic(http.ErrAbortHandler)
			}
		}()
		h(sr, r)
	}
}

// countPanic records one panic recovered at a boundary (contain's, or
// instrument's): fonduer_panics_total — sm is nil for an uninstrumented
// session — and a log line carrying the stack.
func (sm *serverMetrics) countPanic(tenant, where string, r any) {
	if sm != nil {
		sm.panics.With(tenant, where).Inc()
	}
	obs.Log().Error("panic recovered", "tenant", tenant, "where", where,
		"panic", fmt.Sprint(r), "stack", string(debug.Stack()))
}

// registryMetrics are the fleet-level families: gauges mirroring
// registry state and counters sampled at scrape time from state kept
// elsewhere (the process's runtime, writeJSON's failure atomics).
type registryMetrics struct {
	uptime    *obs.Family // gauge
	buildInfo *obs.Family // gauge {version,revision,goversion}, fixed at 1
	tenants   *obs.Family // gauge
	poolLimit *obs.Family // gauge
	poolInUse *obs.Family // gauge

	// The process's memory, read with runtime/metrics (which, unlike
	// ReadMemStats, stops nothing): what a claim about resident memory or
	// about the collector's share of a publish is checked against.
	heapLive    *obs.Family // gauge
	heapObjects *obs.Family // gauge
	gcCPU       *obs.Family // counter, sampled

	degraded     *obs.Family // gauge {tenant}
	servedEpoch  *obs.Family // gauge {tenant}
	generation   *obs.Family // gauge {tenant}
	trainLag     *obs.Family // gauge {tenant}
	docs         *obs.Family // gauge {tenant}
	candidates   *obs.Family // gauge {tenant}
	kbEntries    *obs.Family // gauge {tenant}
	featureRows  *obs.Family // gauge {tenant}
	featureDict  *obs.Family // gauge {tenant}
	cacheHitRate *obs.Family // gauge {tenant}

	respErrs *obs.Family // counter {kind}, sampled from the writeJSON atomics
}

func newRegistryMetrics(m *obs.Metrics) *registryMetrics {
	return &registryMetrics{
		uptime: m.Gauge("fonduer_uptime_seconds",
			"Seconds since the registry started."),
		buildInfo: m.Gauge("fonduer_build_info",
			"Build metadata as labels; the value is always 1.",
			"version", "revision", "goversion"),
		tenants: m.Gauge("fonduer_tenants",
			"Live tenants in the registry."),
		poolLimit: m.Gauge("fonduer_pool_shared_limit",
			"Process-wide cap on extra worker goroutines (0 = unlimited)."),
		poolInUse: m.Gauge("fonduer_pool_shared_in_use",
			"Extra worker goroutines currently holding a shared-limit slot."),
		heapLive: m.Gauge("fonduer_go_heap_live_bytes",
			"Heap that survived the last garbage collection ("+runtimeHeapLive+")."),
		heapObjects: m.Gauge("fonduer_go_heap_objects_bytes",
			"Heap occupied by live objects and by dead ones not yet swept ("+runtimeHeapObjects+")."),
		gcCPU: m.Counter("fonduer_go_gc_cpu_seconds_total",
			"Estimated CPU time the garbage collector has used since the process started ("+runtimeGCCPU+")."),
		degraded: m.Gauge("fonduer_tenant_degraded",
			"1 while the tenant carries a failure record: a failed writer or a stuck trainer.",
			"tenant"),
		servedEpoch: m.Gauge("fonduer_served_epoch",
			"Epoch the tenant's readers currently observe.",
			"tenant"),
		generation: m.Gauge("fonduer_model_generation",
			"Model generation the tenant's served epoch classifies with.",
			"tenant"),
		trainLag: m.Gauge("fonduer_train_lag_epochs",
			"Delta epochs published since the serving model generation was trained (async publication staleness).",
			"tenant"),
		docs: m.Gauge("fonduer_tenant_docs",
			"Documents in the tenant's served epoch.",
			"tenant"),
		candidates: m.Gauge("fonduer_tenant_candidates",
			"Candidates in the tenant's served epoch.",
			"tenant"),
		kbEntries: m.Gauge("fonduer_tenant_kb_entries",
			"Knowledge-base tuples in the tenant's served epoch.",
			"tenant"),
		featureRows: m.Gauge("fonduer_store_feature_rows",
			"Rows of the tenant's Features relation: (candidate, feature) pairs in its served epoch.",
			"tenant"),
		featureDict: m.Gauge("fonduer_store_feature_dictionary_size",
			"Distinct feature names in the tenant's session feature dictionary (what /features reports as distinctFeatures).",
			"tenant"),
		cacheHitRate: m.Gauge("fonduer_page_cache_hit_rate",
			"Disk backend page-cache hit rate for the tenant's store, 0..1.",
			"tenant"),
		respErrs: m.Counter("fonduer_response_errors_total",
			"Response bodies that failed after the status line: encode (server bug) or write (client gone).",
			"kind"),
	}
}

// The runtime/metrics series behind the three process gauges.
const (
	runtimeHeapLive    = "/gc/heap/live:bytes"
	runtimeHeapObjects = "/memory/classes/heap/objects:bytes"
	runtimeGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

// sample refreshes the fleet gauges and sampled counters (statuses[i]
// is entries[i]'s row); called by the /metrics handler immediately
// before exposition.
func (rm *registryMetrics) sample(uptimeSecs float64, statuses []TenantStatus, entries []*tenantEntry) {
	rm.uptime.With().Set(uptimeSecs)
	b := obs.BuildInfo()
	rm.buildInfo.With(b.Version, b.Revision, b.GoVersion).Set(1)
	rm.tenants.With().Set(float64(len(statuses)))
	rm.poolLimit.With().Set(float64(pool.SharedLimit()))
	rm.poolInUse.With().Set(float64(pool.SharedInUse()))
	rm.respErrs.With("encode").Set(float64(respErrEncode.Load()))
	rm.respErrs.With("write").Set(float64(respErrWrite.Load()))
	mem := []metrics.Sample{{Name: runtimeHeapLive}, {Name: runtimeHeapObjects}, {Name: runtimeGCCPU}}
	metrics.Read(mem)
	rm.heapLive.With().Set(float64(mem[0].Value.Uint64()))
	rm.heapObjects.With().Set(float64(mem[1].Value.Uint64()))
	rm.gcCPU.With().Set(mem[2].Value.Float64())
	for i, ts := range statuses {
		deg := 0.0
		if ts.Degraded != nil {
			deg = 1
		}
		rm.degraded.With(ts.Name).Set(deg)
		rm.servedEpoch.With(ts.Name).Set(float64(ts.Epoch))
		rm.generation.With(ts.Name).Set(float64(ts.Generation))
		rm.trainLag.With(ts.Name).Set(float64(ts.TrainLag))
		rm.docs.With(ts.Name).Set(float64(ts.Docs))
		rm.candidates.With(ts.Name).Set(float64(ts.Candidates))
		rm.kbEntries.With(ts.Name).Set(float64(ts.KBEntries))
		v := entries[i].srv.CurrentView()
		rm.featureRows.With(ts.Name).Set(float64(v.TableRows()["features"]))
		rm.featureDict.With(ts.Name).Set(float64(v.FeatureStats().DistinctFeatures))
		rm.cacheHitRate.With(ts.Name).Set(v.StorageStats().PageCacheHitRate)
	}
}

// observePublish records one publication's metrics: the end-to-end
// publish latency, each stage's duration, and the training counters.
// Called from the writer goroutine after the trace is assembled.
func (sm *serverMetrics) observePublish(tenant string, tr obs.Trace, epochs int, trainSecs float64) {
	kind := tr.Kind
	if tr.Err != "" {
		kind = "failed"
	}
	sm.publishes.With(tenant, kind).Inc()
	if tr.Err != "" {
		return
	}
	sm.publishDur.With(tenant).Observe(tr.DurationMs / 1e3)
	for _, sp := range tr.Spans {
		sm.stageDur.With(tenant, sp.Name).Observe(sp.DurationMs / 1e3)
	}
	if epochs > 0 {
		sm.trainEpochs.With(tenant).Add(float64(epochs))
		sm.trainDur.With(tenant).Observe(trainSecs)
	}
}
