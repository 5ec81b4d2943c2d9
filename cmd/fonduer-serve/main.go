// Command fonduer-serve serves knowledge-base sessions over HTTP:
// snapshot-isolated reads (KB tuples, candidates, marginals, LF
// metrics, feature statistics, session metadata), online document
// ingestion (each batch published at once under the serving model, the
// model retrained in the background or on POST /admin/train), ad-hoc
// classification against the current model, and snapshot-to-disk — all
// concurrently, with every response served from exactly one published
// epoch (see internal/serve for the copy-on-write concurrency model).
//
// One process carries N isolated tenants (a session registry, see
// internal/serve/registry.go): each tenant is its own store, writer
// goroutine and epoch pointer, routed under /t/<tenant>/..., with the
// un-prefixed routes reaching the default tenant: the first one created,
// the first -tenants spec or, without one, "default". Tenants are
// bootstrapped with -tenants or created at runtime via
// POST /admin/tenants. Tenants share CPU through the Go scheduler;
// nothing caps their goroutines, and no result depends on the
// schedule.
//
// Usage:
//
//	fonduer-serve -addr :8080 -domain electronics                # one empty default tenant, ingest online
//	fonduer-serve -store ./session -domain electronics           # serve a 'fonduer -store ./session' build
//	fonduer-serve -store ./session -relation HasCollectorCurrent # pick one of the domain's relations
//	fonduer-serve -backend disk                                  # accepted and echoed in /meta; relations stay in the store
//	fonduer-serve -tenants 'elec:electronics,ads:ads'            # multi-tenant bootstrap
//	                                                             # (name:domain[:relation])
//
// With -store, the directory layout of cmd/fonduer is understood
// directly: the default tenant resumes a batch-built snapshot at
// <store>/<relation> (no re-parse, no re-extract); other tenants
// persist and resume under <store>/<tenant>/<relation> via
// POST /t/<tenant>/admin/snapshot.
//
// Endpoints (all JSON; every response carries its epoch):
//
//	GET  /healthz   GET /kb   GET /candidates   GET /marginals
//	GET  /lfmetrics GET /features GET /meta     (default-tenant alias;
//	                                             /healthz rolls up the fleet)
//	POST /ingest    POST /classify   POST /admin/snapshot   POST /admin/train
//	GET  /admin/traces   (recent publication span trees)
//	GET|POST /admin/tenants   DELETE /admin/tenants/<name>
//	GET  /metrics   (Prometheus text exposition, fleet + per-tenant)
//	/t/<tenant>/<any of the per-tenant routes above>
//
// Observability: -log-level picks the structured JSON log level,
// -slow-query-ms logs filtered /kb reads over the threshold with the
// plan the storage layer chose, and -debug-addr serves net/http/pprof
// on a separate listener so profiling never contends with the API.
//
// On SIGINT/SIGTERM the server drains in-flight requests and closes
// every tenant.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	fonduer "repro"
	"repro/internal/kbase"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	store := flag.String("store", "", "session directory as used by 'fonduer -store' (default tenant at <store>/<relation>, others at <store>/<tenant>/<relation>)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "per-tenant worker count for ingest-time pipeline stages (0 = GOMAXPROCS)")
	domain := flag.String("domain", "electronics", "default tenant's task definitions: electronics, ads, paleo, genomics")
	relation := flag.String("relation", "", "default tenant's relation (default: the domain's first)")
	tenants := flag.String("tenants", "", "bootstrap tenants as comma-separated name:domain[:relation] specs; empty = one default tenant from -domain/-relation")
	threshold := flag.Float64("threshold", 0.5, "classification threshold over output marginals")
	epochs := flag.Int("epochs", 16, "training epochs per published view")
	seed := flag.Int64("seed", 1, "random seed")
	backend := flag.String("backend", "", "storage engine kind: memory, disk or columnar (default memory); validated here, echoed in /meta, while the session keeps its relations itself on every kind")
	// Deprecated: parsed documents stay in memory (DESIGN.md, "Why
	// documents stay resident"). The flag is accepted only because
	// benchmark/ still passes it to its store_spill server; it goes when
	// the next benchmark-archetype PR drops that argument (ROADMAP item 3(d)).
	maxResident := flag.Int("max-resident-docs", 0, "deprecated and ignored: parsed documents always stay in memory")
	trainDrift := flag.Float64("train-drift", 0.10, "trigger a background retrain when the session feature space has grown by more than this fraction since the serving model generation was trained (<=0 disables the drift trigger)")
	trainInterval := flag.Duration("train-interval", 30*time.Second, "retrain in the background at this cadence whenever delta epochs have been published since the serving generation was trained (0 disables the timer)")
	logLevel := flag.String("log-level", "info", "structured-log level: debug, info, warn, error (JSON lines on stderr)")
	slowQueryMs := flag.Int("slow-query-ms", 500, "log filtered /kb reads slower than this many milliseconds, with the chosen plan (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off)")
	flag.Parse()

	if err := obs.InitLogging(*logLevel, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
	if *slowQueryMs > 0 {
		obs.SetSlowQueryThreshold(time.Duration(*slowQueryMs) * time.Millisecond)
	}
	if *debugAddr != "" {
		dbg, stopDebug, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
			os.Exit(1)
		}
		defer stopDebug()
		fmt.Printf("fonduer-serve: pprof on http://%s/debug/pprof/\n", dbg)
	}
	if *maxResident != 0 {
		obs.Log().Warn("-max-resident-docs is deprecated and ignored: parsed documents always stay in memory", "value", *maxResident)
	}
	if !kbase.ValidBackendKind(*backend) {
		fmt.Fprintf(os.Stderr, "fonduer-serve: unknown -backend %q (want %s)\n", *backend, kbase.BackendKindsWant())
		os.Exit(1)
	}
	// A server's live heap is small and mostly pointerful (a session
	// keeps each relation once: documents, candidates, views), so at
	// GOGC=100 the collector cycles often for the marking each cycle
	// does. On a read-heavy tenant 150 cuts GC CPU by about a third and
	// keeps the p99 page read flat, for a larger heap goal (DESIGN.md
	// §3b). $GOGC still decides when set.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(150)
	}
	opts := fonduer.Options{
		ThresholdOverride: fonduer.Float64(*threshold), Epochs: *epochs, Seed: *seed,
		Workers: *workers, Backend: *backend,
	}
	rg, err := buildRegistry(*store, *domain, *relation, *tenants, opts, *trainDrift, *trainInterval)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
	for _, ts := range rg.List() {
		state := "empty (ingest via POST /t/" + ts.Name + "/ingest)"
		if ts.Resumed {
			state = fmt.Sprintf("resumed: %d documents, %d candidates", ts.Docs, ts.Candidates)
		}
		def := ""
		if ts.Default {
			def = " [default]"
		}
		fmt.Printf("tenant %-16s %s/%s %s%s\n", ts.Name, ts.Domain, ts.Relation, state, def)
	}
	fmt.Printf("fonduer-serve: %d tenant(s), listening on %s\n", len(rg.List()), *addr)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		rg.Close()
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serveUntil(newHTTPServer(rg.Handler()), rg, ln, stop); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "fonduer-serve:", err)
		os.Exit(1)
	}
}

// The main listener's connection timeouts. A client gets
// readHeaderTimeout to send its request line and headers — one that
// connects and stalls is disconnected instead of holding a goroutine
// and a descriptor forever — and a keep-alive connection with no
// request in flight is reaped after idleTimeout. Bodies and responses
// are deliberately unbounded: an /ingest upload or a full /kb export
// may legitimately take long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the API handler in the main listener's server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveUntil serves ln until a shutdown signal arrives (or the
// listener fails), then drains in-flight requests via
// http.Server.Shutdown and closes every tenant (registry Close), so
// in-flight requests finish before the process exits.
func serveUntil(httpSrv *http.Server, rg *serve.Registry, ln net.Listener, stop <-chan os.Signal) error {
	defer rg.Close()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("fonduer-serve: caught %v, draining requests and closing tenants\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			httpSrv.Close() // drain timed out: cut the stragglers, still close stores
		}
		return nil
	}
}

// resolveTask maps -domain/-relation (or a tenant spec) to the
// domain's task definitions — the same lookup every binary shares, so
// identical matchers/throttlers/LFs everywhere. Gold tuples are not
// served: a production tenant's corpus arrives online, so quality
// evaluation stays empty exactly as in the single-tenant server.
func resolveTask(domain, relation string) (fonduer.Task, []fonduer.GoldTuple, error) {
	ref, err := fonduer.CorpusByDomain(domain, 0, 2)
	if err != nil {
		return fonduer.Task{}, nil, err
	}
	for _, t := range ref.Tasks {
		if relation == "" || t.Relation == relation {
			return t, nil, nil
		}
	}
	return fonduer.Task{}, nil, fmt.Errorf("no task matches relation %q in domain %q", relation, domain)
}

// parseTenantSpecs parses the -tenants flag: comma-separated
// name:domain[:relation], where an empty relation picks the domain's
// first (elec:electronics:).
func parseTenantSpecs(s string) ([]serve.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []serve.TenantConfig
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("bad -tenants spec %q (want name:domain[:relation])", spec)
		}
		tc := serve.TenantConfig{Name: parts[0], Domain: parts[1]}
		if len(parts) > 2 {
			tc.Relation = parts[2]
		}
		out = append(out, tc)
	}
	return out, nil
}

// buildRegistry assembles the session registry from the flag surface:
// explicit -tenants specs, the first of which is the default tenant,
// or, without them, one tenant named "default" from -domain/-relation,
// resuming the cmd/fonduer <store>/<relation> layout directly.
// trainDrift and trainInterval are every tenant's background-trainer
// triggers (-train-drift, -train-interval).
func buildRegistry(storeDir, domain, relation, tenantsFlag string, opts fonduer.Options, trainDrift float64, trainInterval time.Duration) (*serve.Registry, error) {
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve:       resolveTask,
		BaseOptions:   opts,
		SnapshotRoot:  storeDir,
		TrainDrift:    trainDrift,
		TrainInterval: trainInterval,
	})
	if err != nil {
		return nil, err
	}
	specs, err := parseTenantSpecs(tenantsFlag)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		tc := serve.TenantConfig{Name: "default", Domain: domain, Relation: relation}
		if storeDir != "" {
			task, _, err := resolveTask(domain, relation)
			if err != nil {
				return nil, err
			}
			// Accept both a per-relation snapshot directory and the
			// cmd/fonduer parent layout (<store>/<relation>): fonduer and
			// fonduer-serve hand one session back and forth through the
			// same path.
			snapDir := storeDir
			if !fonduer.IsStoreDir(snapDir) {
				snapDir = filepath.Join(storeDir, task.Relation)
			}
			tc.SnapshotDir = snapDir
		}
		specs = []serve.TenantConfig{tc}
	}
	for _, tc := range specs {
		if _, err := rg.Create(tc); err != nil {
			rg.Close()
			return nil, err
		}
	}
	return rg, nil
}
