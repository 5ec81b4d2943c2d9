// Package serve is the concurrent knowledge-base serving subsystem:
// an HTTP JSON server over one live extraction session (a core.Store)
// that serves reads to any number of clients while documents keep
// arriving.
//
// # Concurrency model: epoch-based copy-on-write publication
//
// The store itself is single-writer by construction (its mutation
// guard panics on concurrent writes), so the server never lets
// requests touch it directly. Instead:
//
//   - All mutations — online ingestion, snapshots, model installs —
//     are funneled through one writer goroutine, which applies them
//     strictly serially.
//   - After every successful mutation the writer builds an immutable
//     core.StoreView and publishes it with a single atomic.Pointer
//     store (Server.publish, the only place a view becomes visible).
//   - Read requests load the pointer once and answer entirely from
//     that view: lock-free, no coordination with the writer, and by
//     construction a response can only ever observe exactly one
//     published epoch — never a half-applied ingest.
//
// # One publication path, two training policies
//
// An ingest is always: apply the batch, capture the delta epoch under
// the serving model (core.Store.ViewDelta), then the training policy.
// Config.Async only decides who runs the trainer. False: the writer
// trains cold inside the same turn and publishes only the trained view,
// so every served epoch is bit-identical to a from-scratch core.Run
// over its corpus. True: the delta view is published at once and a
// background goroutine trains warm, installing through the writer.
//
// Every response carries the (epoch, generation) pair it was served
// from, and the pair fully determines the served bytes: a generation
// is numbered as the successor of the view it was trained from, and
// the writer turn that installs it (Server.install) refuses any number
// that is not the successor of the one being served at that moment.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Task is the extraction task being served (labeling functions
	// are code and travel with it).
	Task core.Task
	// Options fix the session configuration (variant, modalities,
	// workers, training knobs). Workers also bounds the writer's
	// per-ingest parallelism and an upload's parse fan-out.
	Options core.Options
	// Gold, when non-nil, scopes each epoch's quality evaluation
	// (surfaced in /meta); serving works identically without it.
	Gold []core.GoldTuple
	// Store, when non-nil, is an existing session (e.g. resumed from
	// a cmd/fonduer -store snapshot) to serve; otherwise an empty
	// session is created. The server takes ownership: no other
	// goroutine may mutate the store afterwards.
	Store *core.Store
	// SnapshotDir, when non-empty, is the default target directory
	// for POST /admin/snapshot requests that do not name one.
	SnapshotDir string
	// Name labels this session in metrics, traces and log lines
	// (the registry passes the tenant name; "" means "default").
	Name string
	// Metrics, when non-nil, instruments the HTTP surface and the
	// publish pipeline into the given registry. Nil leaves the serving
	// path completely uninstrumented — byte-for-byte the pre-metrics
	// handler chain (the overhead benchmark compares the two).
	Metrics *obs.Metrics
	// Async decides who runs the trainer. True: Ingest publishes the
	// delta epoch at once — the new documents classified under the
	// CURRENT model generation, no training on the write path — and a
	// background trainer goroutine retrains (warm-started from the
	// previous weights) and republishes when feature drift crosses
	// TrainDrift or TrainInterval elapses. False: the writer itself
	// retrains cold before publishing, so readers never see an epoch
	// whose model was not trained on it.
	// cmd/fonduer-serve defaults to async (-sync-publish opts out).
	Async bool
	// TrainDrift triggers a background retrain when the session
	// feature space has grown by more than this fraction since the
	// serving generation was trained (0.1 = 10%). <= 0 disables the
	// drift trigger. Async mode only.
	TrainDrift float64
	// TrainInterval, when > 0, checks at this cadence whether the
	// serving generation is stale (delta epochs published since it
	// trained) and retrains if so. Async mode only.
	TrainInterval time.Duration
}

// Server serves one extraction session over HTTP — standalone, or as
// one tenant of a Registry. Create with New, attach Handler to an
// http.Server, and Close when done.
type Server struct {
	gold        []core.GoldTuple
	snapshotDir string
	name        string
	start       time.Time
	workers     int // Config.Options.Workers

	// traces is the bounded ring of publication traces (initial
	// build, each ingest, snapshots) behind /meta's trace section and
	// GET /admin/traces. Written by the writer goroutine only.
	traces *obs.TraceRing
	// metrics is non-nil when Config.Metrics instrumented the session.
	metrics *serverMetrics
	// kbIndexReads and kbScanReads count the filtered /kb reads answered
	// through a hash index and by a scan: the tenant's children of
	// fonduer_kbase_{index_hits,full_scans}_total, or counters of the
	// server's own when it is not instrumented. Every epoch serves a new
	// KB table, so the counts cannot live in the table's planner.
	kbIndexReads, kbScanReads *obs.Child

	// store is the owned session; mutated only by the writer
	// goroutine, closed (storage-engine cleanup) by Close.
	store *core.Store

	view atomic.Pointer[core.StoreView]

	// degraded is the writer's failure record, set by contain: a writer
	// turn panicked, or left the store failed or ahead of the served
	// epoch. It is terminal — the tenant fails closed, serving its last
	// epoch, until it is reloaded from its last snapshot.
	degraded atomic.Pointer[Degraded]

	// Training policy state. async is Config.Async: who runs the
	// trainer. Under it the trainer goroutine owns retraining; trainMu
	// serializes it against POST /admin/train (the writer's inline
	// trainer never takes it). trainKick is the buffered nudge after a
	// delta epoch crosses the drift threshold.
	async         bool
	trainDrift    float64
	trainInterval time.Duration
	trainKick     chan struct{}
	trainMu       sync.Mutex

	// trainDegraded is the trainer's failure record, set by contain when
	// a retrain (or its install) failed or panicked: delta epochs keep
	// serving and the write path stays healthy, but the model generation
	// is stuck until a retrain succeeds, which clears it. Kept apart from
	// degraded so a delta publish cannot mask a broken trainer.
	trainDegraded atomic.Pointer[Degraded]

	reqs      chan writerReq
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Degraded is a tenant's failure record: what went wrong, where, and the
// epochs on either side of it. Surfaced in /healthz (ok=false), /meta
// and the registry's tenant listing.
type Degraded struct {
	// Err is the failure: the error a writer turn or trainer run
	// returned, or the panic it was recovered from.
	Err string `json:"error"`
	// Where is "writer" (terminal: writes and snapshots are refused with
	// 503 until the tenant is reloaded) or "trainer" (the generation is
	// stuck; the next good retrain clears it).
	Where string `json:"where"`
	// StoreEpoch counts the store's applied mutations; ServedEpoch is
	// the epoch readers observe.
	StoreEpoch  uint64 `json:"storeEpoch"`
	ServedEpoch uint64 `json:"servedEpoch"`
}

// Degraded returns the current failure record, or nil for a healthy
// tenant. The writer's takes precedence over the trainer's.
func (s *Server) Degraded() *Degraded {
	if d := s.degraded.Load(); d != nil {
		return d
	}
	return s.trainDegraded.Load()
}

// contain is the one failure path: it runs fn — one writer turn (where
// "writer", on the writer goroutine) or one trainer run ("trainer") —
// and turns what goes wrong into the tenant's Degraded record instead
// of the process's exit (DESIGN.md §3f has the table). A panic is
// recovered, counted, logged with its stack, and becomes fn's error.
//
//   - writer: the turn is a fault when it panicked, or left the store
//     failed or at another epoch than the served one. Every sound turn
//     ends with the two equal — a refused batch and a snapshot that
//     could not be written move neither, a publish moves both — so an
//     error alone is the caller's answer, not a fault. A fault closes
//     the tenant: this turn and every later one answer errFailed.
//   - trainer: any error of its own marks the generation stuck
//     (trainLoop retries); success clears the mark.
//
// Either record files one failed publication of the given kind.
func (s *Server) contain(where, kind string, fn func() (any, error)) (val any, err error) {
	if d := s.degraded.Load(); d != nil {
		return nil, fmt.Errorf("%w: %s", errFailed, d.Err)
	}
	t0, panicked := time.Now(), false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				val, err = nil, fmt.Errorf("serve: panic on the %s: %v", where, r)
				s.metrics.countPanic(s.name, where, r)
			}
		}()
		val, err = fn()
	}()
	view := s.view.Load()
	rec := &Degraded{Where: where, StoreEpoch: view.Epoch(), ServedEpoch: view.Epoch()}
	if where == "trainer" {
		if err == nil {
			s.trainDegraded.Store(nil)
		}
		if err == nil || errors.Is(err, errClosed) || errors.Is(err, errFailed) {
			return val, err // the last two are the server's state, not the trainer's
		}
		rec.Err = err.Error()
		s.trainDegraded.Store(rec)
	} else {
		rec.StoreEpoch = s.store.Epoch() // the writer goroutine may read its store
		if !panicked && s.store.Err() == nil && rec.StoreEpoch == rec.ServedEpoch {
			return val, err
		}
		if err == nil {
			err = fmt.Errorf("serve: the turn left the store at epoch %d, serving epoch %d", rec.StoreEpoch, rec.ServedEpoch)
		}
		rec.Err = err.Error()
		s.degraded.Store(rec)
		err = fmt.Errorf("%w: %v", errFailed, err)
	}
	s.publish(kind, t0, 0, nil, view, err)
	return nil, err
}

// writerReq is one serialized unit of writer-goroutine work.
type writerReq struct {
	kind  string // the publication kind contain files a fault under
	apply func(st *core.Store) (any, error)
	reply chan writerReply
}

type writerReply struct {
	val any
	err error
}

// New builds a server over the configured session, publishes the
// initial view (epoch 0 for a fresh store; the restored epoch count
// for a resumed one is 0 too, since epochs count this process's
// mutations), and starts the writer goroutine.
func New(cfg Config) (*Server, error) {
	st := cfg.Store
	if st == nil {
		st = core.NewStore(cfg.Task, cfg.Options)
	}
	name := cfg.Name
	if name == "" {
		name = "default"
	}
	s := &Server{
		gold:          cfg.Gold,
		snapshotDir:   cfg.SnapshotDir,
		name:          name,
		start:         time.Now(),
		workers:       cfg.Options.Workers,
		traces:        obs.NewTraceRing(0),
		store:         st,
		async:         cfg.Async,
		trainDrift:    cfg.TrainDrift,
		trainInterval: cfg.TrainInterval,
		trainKick:     make(chan struct{}, 1),
		reqs:          make(chan writerReq),
		closed:        make(chan struct{}),
		kbIndexReads:  &obs.Child{},
		kbScanReads:   &obs.Child{},
	}
	if cfg.Metrics != nil {
		s.metrics = newServerMetrics(cfg.Metrics)
		s.kbIndexReads, s.kbScanReads = s.metrics.indexHits.With(name), s.metrics.fullScans.With(name)
	}
	t0 := time.Now()
	view, err := st.View(cfg.Gold)
	if err != nil {
		if cfg.Store == nil {
			// We created this store, so we close it. A caller-provided
			// store stays the caller's to close — ownership only
			// transfers on success.
			st.Close()
		}
		return nil, fmt.Errorf("serve: building initial view: %w", err)
	}
	s.publish("initial", t0, view.NumDocs(), view.StageSpans(), view, nil)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.closed:
				return
			case req := <-s.reqs:
				val, err := s.contain("writer", req.kind, func() (any, error) { return req.apply(st) })
				req.reply <- writerReply{val: val, err: err}
			}
		}
	}()
	if s.async {
		s.wg.Add(1)
		go s.trainLoop()
	}
	return s, nil
}

// Close stops the writer goroutine and closes the owned store. An
// in-flight request finishes first; subsequent writes fail with an
// error. Reads keep working against the last published view — views
// carry their own state and never touch the store.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
	s.store.Close()
}

// errClosed is returned for writes against a closed server, errFailed
// for writes against a tenant whose writer failed (contain); both 503.
var (
	errClosed = errors.New("serve: server is closed")
	errFailed = errors.New("serve: tenant failed, reload it from its last snapshot")
)

// submit runs fn on the writer goroutine and waits for its result.
// The request channel is unbuffered, so a send only completes when
// the writer has taken the request — every accepted request is
// answered, even across a concurrent Close.
func (s *Server) submit(kind string, fn func(st *core.Store) (any, error)) (any, error) {
	req := writerReq{kind: kind, apply: fn, reply: make(chan writerReply, 1)}
	select {
	case s.reqs <- req:
		rep := <-req.reply
		return rep.val, rep.err
	case <-s.closed:
		return nil, errClosed
	}
}

// CurrentView returns the most recently published epoch view.
func (s *Server) CurrentView() *core.StoreView { return s.view.Load() }

// publish files one publication attempt. With a nil err, view becomes
// the served epoch — this is the only place the view pointer is
// stored, on the writer goroutine once it runs. With a non-nil err
// nothing changes for readers: view is what they keep seeing, and only
// the failure is recorded. Either way the trace goes into the ring, the
// publish/stage/training metrics are fed and the mutation log line is
// emitted. A successful "train" trace names the epoch whose corpus
// trained the generation (the served epoch may be ahead of it after a
// catch-up).
func (s *Server) publish(kind string, t0 time.Time, docs int, spans []obs.Span, view *core.StoreView, err error) {
	tr := obs.Trace{
		Kind:       kind,
		Epoch:      view.Epoch(),
		Generation: view.Generation(),
		Start:      t0,
		DurationMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
		Docs:       docs,
		Spans:      spans,
	}
	epochs, trainSecs := 0, 0.0
	if err == nil {
		s.view.Store(view)
		if kind == "train" {
			tr.Epoch = view.ModelTrainedAtEpoch()
		}
		ts := view.Result().TrainStats
		epochs, trainSecs = ts.Epochs, ts.TotalDuration.Seconds()
	} else {
		tr.Err = err.Error()
	}
	s.traces.Add(tr)
	if s.metrics != nil {
		s.metrics.observePublish(s.name, tr, epochs, trainSecs)
	}
	if err != nil {
		obs.Log().Error("publish failed", "tenant", s.name, "kind", kind,
			"docs", docs, "durationMs", tr.DurationMs, "error", tr.Err)
		return
	}
	obs.Log().Info("published", "tenant", s.name, "kind", kind, "epoch", tr.Epoch,
		"docs", docs, "durationMs", tr.DurationMs)
}

// train runs the trainer over base's corpus — cold when warm is nil —
// and numbers the result as base's successor generation. Whether that
// number becomes real is decided on the writer turn that installs it.
// Takes no lock: the writer's inline trainer runs while Train may be
// holding trainMu and waiting on the writer.
func (s *Server) train(base, warm *core.StoreView) (*core.StoreView, error) {
	return base.Retrain(core.RetrainConfig{Gold: s.gold, Generation: base.Generation() + 1, WarmFrom: warm})
}

// Ingest applies one document batch on the writer goroutine —
// extraction, featurization and supervision for the delta only, per
// the store's incremental semantics — captures the next epoch under
// the serving model, runs the training policy, and publishes and
// returns the resulting view.
func (s *Server) Ingest(docs []*datamodel.Document) (*core.StoreView, error) {
	// The training policy — the one place an ingest consults
	// Config.Async. Either the background trainer owns retraining and
	// the delta view is what gets published, or the writer retrains cold
	// in the same turn and only the trained view is ever visible.
	kind, writerTrains := "delta", false
	if !s.async {
		kind, writerTrains = "ingest", true
	}
	val, err := s.submit(kind, func(st *core.Store) (any, error) {
		t0 := time.Now()
		if err := st.AddDocuments(docs...); err != nil {
			return nil, err
		}
		spans := st.TakeIngestSpans()
		view, err := st.ViewDelta(s.view.Load(), s.gold)
		if err == nil && writerTrains {
			spans = append(spans, view.StageSpans()...)
			view, err = s.train(view, nil)
		}
		if err != nil {
			return nil, err // the store is an epoch ahead: contain closes the tenant
		}
		s.publish(kind, t0, len(docs), append(spans, view.StageSpans()...), view, nil)
		return view, nil
	})
	if err != nil {
		return nil, err
	}
	view := val.(*core.StoreView)
	s.maybeKickTrainer(view)
	return view, nil
}

// maybeKickTrainer nudges the background trainer after a publish when
// the session feature space has grown past the drift threshold since
// the serving generation was trained (never the case for a view the
// writer just trained). Non-blocking: the kick channel is buffered and
// a pending kick is enough.
func (s *Server) maybeKickTrainer(view *core.StoreView) {
	if s.trainDrift <= 0 {
		return
	}
	base := view.TrainedSessionFeatures()
	grown := view.FeatureStats().SessionFeatures - base
	drifted := (base == 0 && grown > 0) ||
		(base > 0 && float64(grown)/float64(base) > s.trainDrift)
	if !drifted {
		return
	}
	select {
	case s.trainKick <- struct{}{}:
	default:
	}
}

// trainLoop is the background trainer goroutine (async mode): it
// waits for a drift kick or the interval tick, and retrains whenever
// the serving generation is stale — or the previous retrain failed
// and needs retrying.
func (s *Server) trainLoop() {
	defer s.wg.Done()
	var tick <-chan time.Time
	if s.trainInterval > 0 {
		t := time.NewTicker(s.trainInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.closed:
			return
		case <-s.trainKick:
		case <-tick:
		}
		if !s.needsTrain() {
			continue
		}
		if _, err := s.Train(); err != nil && err != errClosed {
			obs.Log().Error("background retrain failed", "tenant", s.name, "error", err)
		}
	}
}

// needsTrain reports whether the serving generation is stale: delta
// epochs were published since it trained, or the last retrain failed.
func (s *Server) needsTrain() bool {
	if s.degraded.Load() != nil {
		return false // a failed tenant needs a reload, not a model
	}
	if s.trainDegraded.Load() != nil {
		return true
	}
	v := s.CurrentView()
	return v.Epoch() > v.ModelTrainedAtEpoch()
}

// Train retrains the model over the currently served corpus — warm-
// started from the serving generation — and installs the new
// generation. Training runs on the calling goroutine (the background
// trainer, or an /admin/train request), never on the writer; only the
// install goes through the writer loop. Works under either training
// policy: when the writer trains every epoch itself, this is simply an
// explicit extra retrain of the current corpus. It returns the view
// being served once the install turn is over.
func (s *Server) Train() (*core.StoreView, error) {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()

	val, err := s.contain("trainer", "train", func() (any, error) {
		base := s.CurrentView()
		t0 := time.Now()
		trained, err := s.train(base, base)
		if err != nil {
			return nil, err
		}
		return s.submit("train", func(*core.Store) (any, error) { return s.install(trained, t0) })
	})
	if err != nil {
		return nil, err
	}
	return val.(*core.StoreView), nil
}

// install is the writer turn that makes a trained generation the served
// one — serialized, like every publish, against concurrent ingests.
// This is where a generation number becomes real, so this is where it
// is checked: trained carries the successor of the generation it was
// trained from, and if that is no longer the successor of the
// generation being served, the writer's own trainer has installed a
// model in the meantime — one trained at a later epoch, under the same
// number. The stale model is dropped rather than published over it (one
// pair, one byte content), and the fresher view is the answer. When
// only delta epochs landed while it trained, the new generation catches
// up with them (AdoptModel).
func (s *Server) install(trained *core.StoreView, t0 time.Time) (*core.StoreView, error) {
	cur := s.view.Load()
	if cur.Generation()+1 != trained.Generation() {
		obs.Log().Info("retrain superseded", "tenant", s.name, "trainedAtEpoch", trained.Epoch(),
			"servedGeneration", cur.Generation(), "servedModelEpoch", cur.ModelTrainedAtEpoch())
		return cur, nil
	}
	v := trained
	if cur.Epoch() > trained.Epoch() {
		var err error
		if v, err = cur.AdoptModel(trained, s.gold); err != nil {
			return nil, err
		}
	}
	s.publish("train", t0, v.NumDocs(), v.StageSpans(), v, nil)
	return v, nil
}

// Snapshot persists the session's relations to dir (or the
// configured default when dir is empty) on the writer goroutine, so
// it can never interleave with an ingest. The returned epoch is
// captured inside the writer turn, so it names exactly the state the
// snapshot contains — not whatever epoch is current once the caller
// reads the reply.
func (s *Server) Snapshot(dir string) (string, uint64, error) {
	if dir == "" {
		dir = s.snapshotDir
	}
	if dir == "" {
		return "", 0, fmt.Errorf("serve: no snapshot directory configured")
	}
	val, err := s.submit("snapshot", func(st *core.Store) (any, error) {
		t0 := time.Now()
		if err := st.Snapshot(dir); err != nil {
			obs.Log().Error("snapshot failed", "tenant", s.name, "dir", dir, "error", err)
			return nil, err
		}
		s.traces.Add(obs.Trace{
			Kind:       "snapshot",
			Epoch:      st.Epoch(),
			Start:      t0,
			DurationMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
		})
		obs.Log().Info("snapshot", "tenant", s.name, "dir", dir, "epoch", st.Epoch(),
			"durationMs", float64(time.Since(t0).Nanoseconds())/1e6)
		return st.Epoch(), nil
	})
	if err != nil {
		return "", 0, err
	}
	return dir, val.(uint64), nil
}

// Traces returns the session's buffered publication traces, newest
// first (the /admin/traces payload; the registry aggregates it per
// tenant).
func (s *Server) Traces() []obs.Trace { return s.traces.Snapshot() }
