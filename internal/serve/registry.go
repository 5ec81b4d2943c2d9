package serve

// The multi-tenant session registry: one process, N isolated live
// sessions. Each tenant is a full per-session serving unit — an owned
// core.Store, a writer goroutine, an atomic epoch pointer — i.e.
// exactly a Server; the Registry owns the fleet, routes
// /t/<tenant>/... to it, and adds lifecycle (create/list/delete/
// snapshot) plus fleet-wide health aggregation.
//
// # Isolation and sharing
//
// Tenants share nothing that carries state: stores, views, epochs and
// snapshot directories are strictly per-tenant, so every tenant's
// served epochs are bit-identical to a standalone single-tenant
// Server over the same document batches (the registry race test pins
// this). What tenants do share is machine capacity: the process-wide
// pool.SetSharedLimit budget caps the total extra worker goroutines
// across all tenants' pipeline stages, so one tenant's retrain
// degrades toward sequential instead of starving the fleet — and
// since every stage is bit-identical at any worker count, the cap
// never changes results.
//
// # Routing
//
//	/t/<tenant>/kb|candidates|marginals|lfmetrics|features|meta|
//	            ingest|classify|healthz|admin/snapshot
//	                      per-tenant API (identical to a standalone Server)
//	/kb, /ingest, ...     the same routes, un-prefixed: the default tenant
//	GET    /admin/tenants           list tenants with epoch/doc/storage stats
//	POST   /admin/tenants           create a tenant {name, domain, relation,
//	                                backend, workers, batch, epochs, seed}
//	DELETE /admin/tenants/<name>    remove from routing, Close the store
//	GET    /healthz, /meta          registry-wide aggregation (default tenant's
//	                                payload + per-tenant fleet summary)

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kbase"
	"repro/internal/obs"
)

// ResolveTask maps a (domain, relation) pair to the task definitions
// a new tenant serves. Labeling functions are code, so the mapping
// lives with the caller (cmd/fonduer-serve resolves through the
// built-in domains); relation "" selects the domain's first task.
type ResolveTask func(domain, relation string) (core.Task, []core.GoldTuple, error)

// RegistryConfig assembles a Registry.
type RegistryConfig struct {
	// Resolve maps tenant (domain, relation) specs to tasks. Required.
	Resolve ResolveTask
	// BaseOptions seed every tenant's session options; per-tenant
	// TenantConfig fields override them individually.
	BaseOptions core.Options
	// SnapshotRoot, when non-empty, roots per-tenant persistence:
	// tenant <name> serving relation <rel> snapshots into (and resumes
	// from) <SnapshotRoot>/<name>/<rel>.
	SnapshotRoot string
	// Metrics receives the fleet's instrumentation; nil creates a
	// private registry (every Registry serves GET /metrics either
	// way). Per-Registry rather than process-global, so concurrent
	// registries — tests, embedders — never share series.
	Metrics *obs.Metrics
	// Async/TrainDrift/TrainInterval configure every tenant's training
	// policy (see Config); the registry applies them uniformly to all
	// tenants it builds.
	Async         bool
	TrainDrift    float64
	TrainInterval time.Duration
}

// TenantConfig describes one tenant at creation time. It is the
// POST /admin/tenants request body.
type TenantConfig struct {
	// Name addresses the tenant under /t/<name>/; [A-Za-z0-9_-]{1,64}.
	Name string `json:"name"`
	// Domain/Relation select the served task via the registry's
	// resolver (relation "" = the domain's first).
	Domain   string `json:"domain"`
	Relation string `json:"relation,omitempty"`
	// Backend picks the tenant's storage engine ("memory", or where the
	// paged engine keeps its pages: "disk" or "columnar"; "" inherits
	// the registry's base options).
	Backend string `json:"backend,omitempty"`
	// Workers/Batch/Epochs/Seed override the corresponding base
	// options when non-zero.
	Workers int   `json:"workers,omitempty"`
	Batch   int   `json:"batch,omitempty"`
	Epochs  int   `json:"epochs,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// SnapshotDir, when set programmatically, overrides the
	// <SnapshotRoot>/<name>/<relation> layout (cmd/fonduer-serve uses
	// this to keep the legacy <store>/<relation> path for the default
	// tenant). Not settable over HTTP.
	SnapshotDir string `json:"-"`
}

// TenantStatus is one tenant's row in GET /admin/tenants and the
// registry /meta aggregation.
type TenantStatus struct {
	Name     string `json:"name"`
	Domain   string `json:"domain"`
	Relation string `json:"relation"`
	Default  bool   `json:"default"`
	Resumed  bool   `json:"resumed"`

	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	TrainLag   uint64 `json:"trainLagEpochs"`
	Docs       int    `json:"docs"`
	Candidates int    `json:"candidates"`
	KBEntries  int    `json:"kbEntries"`

	Backend   string `json:"backend"`
	DiskPages int    `json:"diskPages"`

	SnapshotDir string    `json:"snapshotDir,omitempty"`
	Degraded    *Degraded `json:"degraded,omitempty"`
}

// Registry errors, wrapped with tenant context; statusFor maps them to
// status codes (409, 404, 503, 400).
var (
	ErrTenantExists   = errors.New("tenant already exists")
	ErrUnknownTenant  = errors.New("unknown tenant")
	errRegistryClosed = errors.New("serve: registry is closed")
	errBadRequest     = errors.New("serve: bad request")
)

var tenantName = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// fleetTenant is the pseudo-tenant labeling the registry's own routes
// (/admin/tenants, fleet /healthz, /meta, /metrics) in the HTTP
// metrics; Create refuses it as a real tenant name.
const fleetTenant = "_fleet"

// tenantEntry is one live tenant: its immutable creation config, the
// serving unit, and the cached per-tenant handler.
type tenantEntry struct {
	cfg     TenantConfig
	srv     *Server
	handler http.Handler
	resumed bool
}

// Registry owns N named tenants and routes HTTP traffic to them.
// Create with NewRegistry, add tenants with Create (or over HTTP),
// attach Handler, Close when done (closes every tenant).
type Registry struct {
	resolve      ResolveTask
	baseOpts     core.Options
	snapshotRoot string
	start        time.Time

	// Fleet-wide training-policy settings, applied to every tenant the
	// registry builds.
	async         bool
	trainDrift    float64
	trainInterval time.Duration

	// metrics is the fleet's instrumentation registry; every tenant's
	// Server records into it, and fleetMetrics holds the gauge/counter
	// families the /metrics handler samples at scrape time.
	metrics      *obs.Metrics
	fleetMetrics *registryMetrics

	mu          sync.RWMutex
	tenants     map[string]*tenantEntry
	defaultName string
	closed      bool
}

// NewRegistry builds an empty registry. The first tenant created
// becomes the default (un-prefixed route alias) unless SetDefault
// picks another.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("serve: registry needs a task resolver")
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	return &Registry{
		resolve:       cfg.Resolve,
		baseOpts:      cfg.BaseOptions,
		snapshotRoot:  cfg.SnapshotRoot,
		start:         time.Now(),
		async:         cfg.Async,
		trainDrift:    cfg.TrainDrift,
		trainInterval: cfg.TrainInterval,
		metrics:       m,
		fleetMetrics:  newRegistryMetrics(m),
		tenants:       map[string]*tenantEntry{},
	}, nil
}

// tenantOptions layers one tenant's overrides onto the base options.
func (rg *Registry) tenantOptions(tc TenantConfig) core.Options {
	opts := rg.baseOpts
	if tc.Backend != "" {
		opts.Backend = tc.Backend
	}
	if tc.Workers > 0 {
		opts.Workers = tc.Workers
	}
	if tc.Batch > 0 {
		opts.Batch = tc.Batch
	}
	if tc.Epochs > 0 {
		opts.Epochs = tc.Epochs
	}
	if tc.Seed != 0 {
		opts.Seed = tc.Seed
	}
	return opts
}

// Create builds, registers and (if a snapshot exists under its
// snapshot directory) resumes a tenant. The first tenant created
// becomes the registry default.
func (rg *Registry) Create(tc TenantConfig) (*TenantStatus, error) {
	if !tenantName.MatchString(tc.Name) {
		return nil, fmt.Errorf("%w: tenant name %q (want [A-Za-z0-9_-]{1,64})", errBadRequest, tc.Name)
	}
	if tc.Name == fleetTenant {
		return nil, fmt.Errorf("%w: tenant name %q is reserved for fleet metrics", errBadRequest, tc.Name)
	}
	if !kbase.ValidBackendKind(tc.Backend) {
		return nil, fmt.Errorf("%w: tenant %q: unknown backend %q (want %s)", errBadRequest, tc.Name, tc.Backend, kbase.BackendKindsWant())
	}
	task, gold, err := rg.resolve(tc.Domain, tc.Relation)
	if err != nil {
		return nil, fmt.Errorf("%w: tenant %q: %v", errBadRequest, tc.Name, err)
	}
	tc.Relation = task.Relation

	// Reserve the name before the (expensive) store build so two
	// concurrent creates of the same name can't both win.
	rg.mu.Lock()
	if rg.closed {
		rg.mu.Unlock()
		return nil, errRegistryClosed
	}
	if _, ok := rg.tenants[tc.Name]; ok {
		rg.mu.Unlock()
		return nil, fmt.Errorf("serve: %w: %q", ErrTenantExists, tc.Name)
	}
	rg.tenants[tc.Name] = nil // reservation
	rg.mu.Unlock()

	entry, err := rg.buildTenant(tc, task, gold)
	rg.mu.Lock()
	if err != nil || rg.closed {
		delete(rg.tenants, tc.Name)
		rg.mu.Unlock()
		if err == nil {
			entry.srv.Close()
			return nil, errRegistryClosed
		}
		return nil, err
	}
	rg.tenants[tc.Name] = entry
	if rg.defaultName == "" {
		rg.defaultName = tc.Name
	}
	status := rg.statusLocked(entry)
	rg.mu.Unlock()
	obs.Log().Info("tenant created", "tenant", tc.Name, "domain", tc.Domain,
		"relation", tc.Relation, "resumed", entry.resumed)
	return &status, nil
}

func (rg *Registry) buildTenant(tc TenantConfig, task core.Task, gold []core.GoldTuple) (*tenantEntry, error) {
	opts := rg.tenantOptions(tc)
	snapDir := tc.SnapshotDir
	if snapDir == "" && rg.snapshotRoot != "" {
		snapDir = filepath.Join(rg.snapshotRoot, tc.Name, task.Relation)
	}
	tc.SnapshotDir = snapDir

	var st *core.Store
	resumed := false
	if snapDir != "" && core.IsStoreDir(snapDir) {
		var err error
		st, err = core.OpenStore(snapDir, task, opts)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: resuming %s: %w", tc.Name, snapDir, err)
		}
		resumed = true
	}
	srv, err := New(Config{
		Task:          task,
		Options:       opts,
		Gold:          gold,
		Store:         st,
		SnapshotDir:   snapDir,
		Name:          tc.Name,
		Metrics:       rg.metrics,
		Async:         rg.async,
		TrainDrift:    rg.trainDrift,
		TrainInterval: rg.trainInterval,
	})
	if err != nil {
		if st != nil {
			st.Close() // New only takes ownership on success
		}
		return nil, fmt.Errorf("serve: tenant %q: %w", tc.Name, err)
	}
	return &tenantEntry{cfg: tc, srv: srv, handler: srv.Handler(), resumed: resumed}, nil
}

// SetDefault makes name the default tenant (the un-prefixed alias).
func (rg *Registry) SetDefault(name string) error {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if e, ok := rg.tenants[name]; !ok || e == nil {
		return fmt.Errorf("serve: %w: %q", ErrUnknownTenant, name)
	}
	rg.defaultName = name
	return nil
}

// DefaultName returns the default tenant's name ("" when none).
func (rg *Registry) DefaultName() string {
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	return rg.defaultName
}

// Get returns a tenant's serving unit, or nil if unknown.
func (rg *Registry) Get(name string) *Server {
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	if e := rg.tenants[name]; e != nil { // nil for reservations in progress
		return e.srv
	}
	return nil
}

// Delete removes a tenant: it disappears from routing immediately,
// then its writer goroutine stops and its store is closed. In-flight
// reads finish against their
// already-loaded views. The default tenant cannot be deleted — the
// un-prefixed alias must keep resolving.
func (rg *Registry) Delete(name string) error {
	rg.mu.Lock()
	e, ok := rg.tenants[name]
	if !ok || e == nil {
		rg.mu.Unlock()
		return fmt.Errorf("serve: %w: %q", ErrUnknownTenant, name)
	}
	if name == rg.defaultName {
		rg.mu.Unlock()
		return fmt.Errorf("%w: tenant %q is the default tenant; pick a new default before deleting it", errBadRequest, name)
	}
	delete(rg.tenants, name)
	rg.mu.Unlock()
	e.srv.Close()
	obs.Log().Info("tenant deleted", "tenant", name)
	return nil
}

// List returns every tenant's status, sorted by name.
func (rg *Registry) List() []TenantStatus {
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	entries := rg.sortedEntriesLocked()
	out := make([]TenantStatus, len(entries))
	for i, e := range entries {
		out[i] = rg.statusLocked(e)
	}
	return out
}

// statusLocked builds one tenant's status row; rg.mu must be held.
func (rg *Registry) statusLocked(e *tenantEntry) TenantStatus {
	v := e.srv.CurrentView()
	st := v.StorageStats()
	return TenantStatus{
		Name:        e.cfg.Name,
		Domain:      e.cfg.Domain,
		Relation:    e.cfg.Relation,
		Default:     e.cfg.Name == rg.defaultName,
		Resumed:     e.resumed,
		Epoch:       v.Epoch(),
		Generation:  v.Generation(),
		TrainLag:    v.Epoch() - v.ModelTrainedAtEpoch(),
		Docs:        v.NumDocs(),
		Candidates:  len(v.Candidates()),
		KBEntries:   v.KB().Len(),
		Backend:     st.Backend,
		DiskPages:   st.DiskPages,
		SnapshotDir: e.cfg.SnapshotDir,
		Degraded:    e.srv.Degraded(),
	}
}

// Close shuts every tenant down (writer goroutines stopped, stores
// closed) and rejects subsequent
// registry operations. Safe to call more than once.
func (rg *Registry) Close() {
	rg.mu.Lock()
	if rg.closed {
		rg.mu.Unlock()
		return
	}
	rg.closed = true
	entries := rg.sortedEntriesLocked()
	rg.tenants = map[string]*tenantEntry{}
	rg.mu.Unlock()
	for _, e := range entries {
		e.srv.Close()
	}
}

// ---- HTTP surface.

// Handler returns the registry's HTTP API: per-tenant routes under
// /t/<name>/, the same routes un-prefixed for the default tenant,
// tenant lifecycle under /admin/tenants, fleet-wide /healthz + /meta + /admin/traces,
// and Prometheus exposition at /metrics. Fleet-level routes are
// instrumented under the pseudo-tenant "_fleet"; Create reserves the
// name so a real tenant can never alias its series.
func (rg *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	sm := newServerMetrics(rg.metrics)
	reg := func(pattern string, h http.HandlerFunc) {
		route := pattern[strings.IndexByte(pattern, ' ')+1:]
		mux.HandleFunc(pattern, sm.instrument(fleetTenant, route, h))
	}
	reg("GET /admin/tenants", rg.handleList)
	reg("POST /admin/tenants", rg.handleCreate)
	reg("DELETE /admin/tenants/{name}", rg.handleDelete)
	reg("GET /healthz", rg.handleHealthz)
	reg("GET /meta", rg.handleMeta)
	reg("GET /metrics", rg.handleMetrics)
	reg("GET /admin/traces", rg.handleTraces)
	mux.HandleFunc("/t/{tenant}", rg.handleTenant) // no trailing path: still resolve, 404 cleanly
	mux.HandleFunc("/t/{tenant}/", rg.handleTenant)
	mux.HandleFunc("/", rg.handleTenant) // un-prefixed: the default tenant
	return mux
}

// read runs fn under the registry's read lock and reports true — or,
// when the registry is closed, answers 503 and reports false. Every
// route that looks at the fleet starts here.
func (rg *Registry) read(w http.ResponseWriter, fn func()) bool {
	rg.mu.RLock()
	closed := rg.closed
	if !closed {
		fn()
	}
	rg.mu.RUnlock()
	if closed {
		writeErr(w, errRegistryClosed)
	}
	return !closed
}

// handleTenant is the one dispatch into a tenant's own handler:
// /t/<name>/<rest> with the prefix stripped, so the per-tenant API is
// byte-identical to a standalone Server's, and every un-prefixed route
// (/kb, /ingest, /admin/snapshot, ... — the matched pattern has no
// {tenant}) as it is, against the default tenant.
func (rg *Registry) handleTenant(w http.ResponseWriter, r *http.Request) {
	name, prefix := r.PathValue("tenant"), ""
	var e *tenantEntry
	if !rg.read(w, func() {
		if name == "" {
			name = rg.defaultName
		} else {
			prefix = "/t/" + name
		}
		e = rg.tenants[name] // nil for reservations in progress
	}) {
		return
	}
	switch {
	case name == "":
		writeError(w, http.StatusNotFound, "no default tenant configured (create one via POST /admin/tenants)")
	case e == nil:
		writeError(w, http.StatusNotFound, "unknown tenant %q", name)
	default:
		http.StripPrefix(prefix, e.handler).ServeHTTP(w, r)
	}
}

func (rg *Registry) handleList(w http.ResponseWriter, r *http.Request) {
	var def string
	if !rg.read(w, func() { def = rg.defaultName }) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"default": def,
		"tenants": rg.List(),
	})
}

func (rg *Registry) handleCreate(w http.ResponseWriter, r *http.Request) {
	var tc TenantConfig
	if !readJSON(w, r, &tc) {
		return
	}
	status, err := rg.Create(tc)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, status)
}

func (rg *Registry) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := rg.Delete(name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// handleHealthz aggregates fleet health. The payload is a superset of
// the single-tenant /healthz: the default tenant's summary at the top
// level (PR 3 clients keep working), plus a per-tenant roll-up; ok is
// the conjunction over every tenant.
func (rg *Registry) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var def *tenantEntry
	var defName string
	var entries []*tenantEntry
	if !rg.read(w, func() {
		def, defName, entries = rg.tenants[rg.defaultName], rg.defaultName, rg.sortedEntriesLocked()
	}) {
		return
	}
	ok := true
	perTenant := make([]map[string]any, 0, len(entries))
	for _, e := range entries {
		p := e.srv.healthzPayload()
		p["name"] = e.cfg.Name
		if p["ok"] != true {
			ok = false
		}
		perTenant = append(perTenant, p)
	}
	base := map[string]any{}
	if def != nil {
		base = def.srv.healthzPayload()
	}
	base["ok"] = ok
	base["default"] = defName
	base["tenants"] = perTenant
	// Fleet uptime overrides the default tenant's: the fleet payload
	// describes the process, not one session.
	base["uptimeSeconds"] = time.Since(rg.start).Seconds()
	base["build"] = buildPayload()
	writeJSON(w, http.StatusOK, base)
}

// handleMetrics is GET /metrics: Prometheus text exposition of the
// whole fleet. Counter and histogram series are maintained on the
// request/publish paths; state-mirroring gauges (epochs, doc counts,
// pool utilization, sampled storage counters) are refreshed here,
// right before exposition, so scraping is what pays for them.
func (rg *Registry) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var entries []*tenantEntry
	var statuses []TenantStatus // entries' rows, from one hold of the lock
	if !rg.read(w, func() {
		entries = rg.sortedEntriesLocked()
		for _, e := range entries {
			statuses = append(statuses, rg.statusLocked(e))
		}
	}) {
		return
	}
	rg.fleetMetrics.sample(time.Since(rg.start).Seconds(), statuses, entries)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rg.metrics.WritePrometheus(w); err != nil {
		respErrWrite.Add(1)
		obs.Log().Debug("metrics exposition write failed", "error", err)
	}
}

// handleTraces is the fleet GET /admin/traces: every tenant's recent
// publication traces, keyed by tenant name. (Per-tenant rings are
// also served at /t/<name>/admin/traces.)
func (rg *Registry) handleTraces(w http.ResponseWriter, r *http.Request) {
	var entries []*tenantEntry
	if !rg.read(w, func() { entries = rg.sortedEntriesLocked() }) {
		return
	}
	perTenant := make(map[string]any, len(entries))
	for _, e := range entries {
		perTenant[e.cfg.Name] = e.srv.Traces()
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": perTenant})
}

// handleMeta serves the registry-wide /meta: the default tenant's
// full metadata (alias compatibility) decorated with a "registry"
// section carrying the fleet's per-tenant stats.
func (rg *Registry) handleMeta(w http.ResponseWriter, r *http.Request) {
	var def *tenantEntry
	var defName string
	if !rg.read(w, func() { def, defName = rg.tenants[rg.defaultName], rg.defaultName }) {
		return
	}
	p := map[string]any{}
	if def != nil {
		p = def.srv.metaPayload()
	}
	p["registry"] = map[string]any{
		"default": defName,
		"tenants": rg.List(),
	}
	writeJSON(w, http.StatusOK, p)
}

// sortedEntriesLocked snapshots the live tenants in name order;
// rg.mu must be held.
func (rg *Registry) sortedEntriesLocked() []*tenantEntry {
	out := make([]*tenantEntry, 0, len(rg.tenants))
	for _, e := range rg.tenants {
		if e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}
