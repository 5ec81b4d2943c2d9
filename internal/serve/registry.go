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
// snapshot directories are strictly per-tenant, so every epoch a tenant
// serves beside busy neighbours is bit-identical to core.Run from
// scratch over the same corpus prefix (the registry race test pins
// this), and a failed tenant's neighbours serve what a fresh
// single-tenant registry fed the same batches serves. What tenants do
// share is CPU, through the Go scheduler: nothing caps their pipeline
// stages' goroutines, and since every stage is bit-identical at any
// worker count, the schedule never changes results.
//
// # Routing
//
//	/t/<tenant>/kb|candidates|marginals|lfmetrics|features|meta|
//	            ingest|classify|healthz|admin/snapshot
//	                      per-tenant API: the tenant Server's Handler
//	/kb, /meta, ...       the same routes, un-prefixed: the default tenant,
//	                      the first one created
//	GET    /admin/tenants           list tenants with epoch/doc stats
//	POST   /admin/tenants           create a tenant {name, domain, relation}
//	DELETE /admin/tenants/<name>    remove from routing, Close the store
//	GET    /healthz                 fleet roll-up (default tenant's payload +
//	                                per-tenant summaries; ok over every tenant)
//	GET    /metrics                 Prometheus exposition of the fleet

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ResolveTask maps a (domain, relation) pair to the task definitions
// a new tenant serves. Labeling functions are code, so the mapping
// lives with the caller (cmd/fonduer-serve resolves through the
// built-in domains); relation "" selects the domain's first task. The
// gold tuples, when non-nil, scope each epoch's quality evaluation
// (surfaced in /meta); serving works identically without them.
type ResolveTask func(domain, relation string) (core.Task, []core.GoldTuple, error)

// RegistryConfig assembles a Registry.
type RegistryConfig struct {
	// Resolve maps tenant (domain, relation) specs to tasks. Required.
	Resolve ResolveTask
	// BaseOptions are every tenant's session options; a tenant
	// overrides none of them. Workers also bounds each writer's
	// per-ingest parallelism and an upload's parse fan-out.
	BaseOptions core.Options
	// SnapshotRoot, when non-empty, roots per-tenant persistence:
	// tenant <name> serving relation <rel> snapshots into (and resumes
	// from) <SnapshotRoot>/<name>/<rel>.
	SnapshotRoot string
	// TrainDrift and TrainInterval configure every tenant's background
	// trainer. TrainDrift retrains when the session feature space has
	// grown by more than this fraction since the serving generation was
	// trained (0.1 = 10%); <= 0 disables the drift trigger.
	// TrainInterval, when > 0, checks at this cadence whether the
	// serving generation is stale (delta epochs published since it
	// trained) and retrains if so.
	TrainDrift    float64
	TrainInterval time.Duration
	// Async is ignored: every tenant publishes delta epochs and trains
	// only through Server.Train.
	//
	// Deprecated: kept only so existing callers compile; it is to be
	// deleted.
	Async bool
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
	// SnapshotDir, when set programmatically, overrides the
	// <SnapshotRoot>/<name>/<relation> layout (cmd/fonduer-serve uses
	// this to keep the legacy <store>/<relation> path for the default
	// tenant). Not settable over HTTP. The tenant resumes the snapshot
	// found there and POST /admin/snapshot writes it; with neither
	// this nor SnapshotRoot set, snapshots are refused.
	SnapshotDir string `json:"-"`
}

// TenantStatus is one tenant's row in GET /admin/tenants.
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
// (/admin/tenants, fleet /healthz, /metrics) in the HTTP
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

	// Fleet-wide trainer settings, applied to every tenant the registry
	// builds.
	trainDrift    float64
	trainInterval time.Duration

	// metrics is the fleet's instrumentation registry, private to this
	// Registry so concurrent registries never share series:
	// tenantMetrics are the families every tenant's Server (and the
	// fleet routes, under _fleet) records into, fleetMetrics the
	// gauge/counter families the /metrics handler samples at scrape
	// time.
	metrics       *obs.Metrics
	tenantMetrics *serverMetrics
	fleetMetrics  *registryMetrics

	mu      sync.RWMutex
	tenants map[string]*tenantEntry
	// defaultName is the first tenant created, set once, so the
	// un-prefixed routes always reach a tenant of that name — or, while
	// none exists after a Delete, answer 404 naming it.
	defaultName string
	closed      bool
}

// NewRegistry builds an empty registry. The first tenant created
// becomes the default (un-prefixed route alias).
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("serve: registry needs a task resolver")
	}
	m := obs.NewMetrics()
	return &Registry{
		resolve:       cfg.Resolve,
		baseOpts:      cfg.BaseOptions,
		snapshotRoot:  cfg.SnapshotRoot,
		start:         time.Now(),
		trainDrift:    cfg.TrainDrift,
		trainInterval: cfg.TrainInterval,
		metrics:       m,
		tenantMetrics: newServerMetrics(m),
		fleetMetrics:  newRegistryMetrics(m),
		tenants:       map[string]*tenantEntry{},
	}, nil
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

// buildTenant is the one place a Server is built: from the registry's
// settings, the tenant's config, its resolved task and gold, and the
// store it resumes from the tenant's snapshot directory or, when there
// is none, creates empty. It publishes the initial view and starts the
// writer and the trainer.
func (rg *Registry) buildTenant(tc TenantConfig, task core.Task, gold []core.GoldTuple) (*tenantEntry, error) {
	if tc.SnapshotDir == "" && rg.snapshotRoot != "" {
		tc.SnapshotDir = filepath.Join(rg.snapshotRoot, tc.Name, task.Relation)
	}
	resumed := tc.SnapshotDir != "" && core.IsStoreDir(tc.SnapshotDir)
	var st *core.Store
	if resumed {
		var err error
		if st, err = core.OpenStore(tc.SnapshotDir, task, rg.baseOpts); err != nil {
			return nil, fmt.Errorf("serve: tenant %q: resuming %s: %w", tc.Name, tc.SnapshotDir, err)
		}
	} else {
		st = core.NewStore(task, rg.baseOpts)
	}
	srv := &Server{
		gold:          gold,
		snapshotDir:   tc.SnapshotDir,
		name:          tc.Name,
		start:         time.Now(),
		workers:       rg.baseOpts.Workers,
		traces:        obs.NewTraceRing(0),
		metrics:       rg.tenantMetrics,
		kbIndexReads:  rg.tenantMetrics.indexHits.With(tc.Name),
		kbScanReads:   rg.tenantMetrics.fullScans.With(tc.Name),
		store:         st,
		trainDrift:    rg.trainDrift,
		trainInterval: rg.trainInterval,
		trainKick:     make(chan struct{}, 1),
		reqs:          make(chan writerReq),
		closed:        make(chan struct{}),
	}
	if err := srv.run(); err != nil {
		st.Close()
		return nil, fmt.Errorf("serve: tenant %q: %w", tc.Name, err)
	}
	return &tenantEntry{cfg: tc, srv: srv, handler: srv.Handler(), resumed: resumed}, nil
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
// then its writer and trainer stop and its metric series are dropped.
// In-flight reads finish against their already-loaded views. Until the
// series are gone the name stays reserved, so a concurrent Create of it
// is refused rather than having its fresh series dropped. Deleting the
// default tenant — the way back for a failed one — keeps its name the
// default: the un-prefixed routes answer 404 until a tenant of that name
// is created again, which resumes its snapshot.
func (rg *Registry) Delete(name string) error {
	rg.mu.Lock()
	e, ok := rg.tenants[name]
	if !ok || e == nil {
		rg.mu.Unlock()
		return fmt.Errorf("serve: %w: %q", ErrUnknownTenant, name)
	}
	rg.tenants[name] = nil // reservation
	rg.mu.Unlock()
	e.srv.Close()
	rg.metrics.Forget("tenant", name)
	rg.mu.Lock()
	delete(rg.tenants, name)
	rg.mu.Unlock()
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
// tenant lifecycle under /admin/tenants, the fleet-wide /healthz, and
// Prometheus exposition at /metrics. Fleet-level routes are
// instrumented under the pseudo-tenant "_fleet"; Create reserves the
// name so a real tenant can never alias its series.
func (rg *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	reg := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, rg.tenantMetrics.instrument(fleetTenant, pattern, h))
	}
	reg("GET /admin/tenants", rg.handleList)
	reg("POST /admin/tenants", rg.handleCreate)
	reg("DELETE /admin/tenants/{name}", rg.handleDelete)
	reg("GET /healthz", rg.handleHealthz)
	reg("GET /metrics", rg.handleMetrics)
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
// /t/<name>/<rest> with the prefix stripped, so the tenant's Handler
// answers it exactly as it answers <rest>, and every un-prefixed route
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
	if !readJSON(w, r, &tc, false) {
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
// heap, sampled storage counters) are refreshed here,
// right before exposition, so scraping is what pays for them.
func (rg *Registry) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The sample is taken under the lock, so it cannot revive the series
	// of a tenant that Delete has reserved and is about to drop.
	if !rg.read(w, func() {
		entries := rg.sortedEntriesLocked()
		var statuses []TenantStatus // entries' rows, from one hold of the lock
		for _, e := range entries {
			statuses = append(statuses, rg.statusLocked(e))
		}
		rg.fleetMetrics.sample(time.Since(rg.start).Seconds(), statuses, entries)
	}) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rg.metrics.WritePrometheus(w); err != nil {
		respErrWrite.Add(1)
		obs.Log().Debug("metrics exposition write failed", "error", err)
	}
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
