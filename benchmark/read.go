package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	fonduer "repro"
	"repro/internal/core"
	"repro/internal/serve"
)

// readSegments is how many equal segments the read phase is cut into; the
// reported figures are the median segment's, which a transient stall in
// one segment does not move.
const readSegments = 5

// readCheck holds what every response of the read phase is checked
// against: the preloaded epoch and generation, the KB's size, and the
// first response seen for each URL.
type readCheck struct {
	rt         *readTable
	epoch      uint64
	generation uint64
	kbTotal    int
	candTotal  int
	first      []atomic.Uint64 // per op: hash of its first response
}

// validate checks one response against the probe that caused it.
func (rc *readCheck) validate(op readOp, body []byte) error {
	var rep kbReply
	var err error
	if op.kind == readMeta {
		var meta metaReply // its "candidates" is a count, not a list
		err = json.Unmarshal(body, &meta)
		rep.Epoch = meta.Epoch
	} else {
		err = json.Unmarshal(body, &rep)
	}
	if err != nil {
		return fmt.Errorf("decoding: %w", err)
	}
	if rep.Epoch != rc.epoch {
		return fmt.Errorf("epoch %d, preloaded %d", rep.Epoch, rc.epoch)
	}
	switch op.kind {
	case readPage:
		if rep.Generation != rc.generation || rep.Total != rc.kbTotal || len(rep.Tuples) != min(pageLimit, rc.kbTotal-rep.Offset) {
			return fmt.Errorf("generation %d total %d tuples %d at offset %d", rep.Generation, rep.Total, len(rep.Tuples), rep.Offset)
		}
	case readFull:
		if rep.Generation != rc.generation || rep.Total != rc.kbTotal || len(rep.Tuples) != rc.kbTotal {
			return fmt.Errorf("generation %d total %d tuples %d, KB has %d", rep.Generation, rep.Total, len(rep.Tuples), rc.kbTotal)
		}
	case readFilter:
		if op.absent != (rep.Total == 0) || rep.Total != len(rep.Tuples) {
			return fmt.Errorf("probe %q (absent=%v) returned total %d, %d tuples", op.probe, op.absent, rep.Total, len(rep.Tuples))
		}
		for _, t := range rep.Tuples {
			if len(t) == 0 || t[0] != op.probe {
				return fmt.Errorf("probe %q returned tuple %v", op.probe, t)
			}
		}
	case readCandidates:
		if rep.Total != rc.candTotal || len(rep.Candidates) > candidateLimit || len(rep.Candidates) == 0 {
			return fmt.Errorf("total %d, %d candidates; corpus has %d", rep.Total, len(rep.Candidates), rc.candTotal)
		}
	}
	return nil
}

// verify checks a 200 response of op index idx: the first response of a
// URL is validated in full, every repeat must be byte-identical to it
// (/meta carries live counters and is validated every time instead).
func (rc *readCheck) verify(idx int, body []byte) error {
	op := rc.rt.ops[idx]
	if op.kind == readMeta {
		return rc.validate(op, body)
	}
	h := bodyHash(body)
	if rc.first[idx].CompareAndSwap(0, h) {
		return rc.validate(op, body)
	}
	if rc.first[idx].Load() != h {
		return fmt.Errorf("response differs from the first response to the same URL")
	}
	return nil
}

// readConn is one closed-loop connection's state across segments.
type readConn struct {
	c         *caller
	next      func() int
	lat       [numReadKinds][]float64 // microseconds, this segment
	attempted int
	failures  []string
}

func (rc *readConn) run(check *readCheck, until time.Time) {
	for i := range rc.lat {
		rc.lat[i] = rc.lat[i][:0]
	}
	for time.Now().Before(until) {
		idx := rc.next()
		op := check.rt.ops[idx]
		t0 := time.Now()
		status, body, err := rc.c.get(op.url)
		d := time.Since(t0)
		rc.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = check.verify(idx, body)
		}
		if err != nil {
			rc.failures = append(rc.failures, fmt.Sprintf("GET %s: %v", op.url, err))
			continue
		}
		rc.lat[op.kind] = append(rc.lat[op.kind], micros(d))
	}
}

func runRead(e *env) (*result, error) {
	r := newResult("serve_read")
	nDocs, conns := 96, min(e.nproc, 2)
	if e.smoke {
		nDocs = 12
	}
	in, err := makeInputs(nDocs)
	if err != nil {
		return nil, err
	}
	// The served corpus is a fixed dataset, loaded in pool order; the seed
	// drives the traffic against it.
	preload := batches(in.docs, uploadBatch)

	s, setups, trains, err := e.bootRepeated(r, "read", preload, func(string) []string { return []string{"-backend", "memory"} })
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	// Learn the KB the mix will probe.
	full, err := s.kb("/kb")
	if err != nil {
		return nil, err
	}
	var cands kbReply
	if err := s.c.getJSON("/candidates?limit=1", &cands); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var parts []string
	for _, t := range full.Tuples {
		if len(t) > 0 && !seen[t[0]] {
			seen[t[0]] = true
			parts = append(parts, t[0])
		}
	}
	sort.Strings(parts)
	r.check((full.Total >= pageLimit || e.smoke) && full.Epoch == s.epoch && full.Generation == s.generation,
		"preloaded KB has %d tuples at epoch %d generation %d; want at least %d at %d/%d", full.Total, full.Epoch, full.Generation, pageLimit, s.epoch, s.generation)
	rt := newReadTable(full.Total, parts, cands.Total)
	check := &readCheck{rt: rt, epoch: s.epoch, generation: s.generation, kbTotal: full.Total, candTotal: cands.Total,
		first: make([]atomic.Uint64, len(rt.ops))}

	// Measured: closed loop, one request in flight per connection.
	quiesce()
	rcs := make([]*readConn, conns)
	for i := range rcs {
		rcs[i] = &readConn{c: &caller{hc: s.hc, base: s.proc.base}, next: rt.stream(e.seed, i)}
	}
	segLen := time.Duration(e.secs / readSegments * float64(time.Second))
	var rps, pageP50, pageP99, filterP50, fullP50 []float64
	var kbLat []float64
	pageN := 0
	for seg := 0; seg < readSegments; seg++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, rc := range rcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rc.run(check, t0.Add(segLen))
			}()
		}
		wg.Wait()
		elapsed := seconds(time.Since(t0))
		var lat [numReadKinds][]float64
		n := 0
		for _, rc := range rcs {
			for k := range lat {
				lat[k] = append(lat[k], rc.lat[k]...)
				n += len(rc.lat[k])
			}
		}
		for k := range lat {
			sort.Float64s(lat[k])
		}
		rps = append(rps, float64(n)/elapsed)
		pageP50 = append(pageP50, percentile(lat[readPage], 50))
		pageP99 = append(pageP99, percentile(lat[readPage], 99))
		filterP50 = append(filterP50, percentile(lat[readFilter], 50))
		fullP50 = append(fullP50, percentile(lat[readFull], 50))
		pageN = len(lat[readPage])
		for _, k := range []readKind{readPage, readFilter, readFull} {
			s.kbGets += int64(len(lat[k]))
			for _, us := range lat[k] {
				kbLat = append(kbLat, us/1e6)
			}
		}
	}
	for _, rc := range rcs {
		r.ok(rc.attempted - len(rc.failures))
		for _, f := range rc.failures {
			r.fail("%s", f)
		}
	}
	if r.Failed == 0 {
		// Failed /kb requests never reached the latency lists, so the
		// driver's count is only comparable when nothing failed.
		s.crossCheck(r, kbLat)
	}
	rss := s.rss()
	if !s.proc.alive() {
		return nil, s.proc.stop()
	}

	spread := func(xs []float64) string {
		a := sorted(xs)
		return fmt.Sprintf("median of %d segments, min %.1f max %.1f", len(a), a[0], a[len(a)-1])
	}
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d: launch, upload %d docs, train", setupRepeats, nDocs))
	r.set("throughput_per_s", median(rps), "requests/s, "+spread(rps))
	r.set("latency_p50_ms", median(pageP50)/1e3, "GET /kb?limit=50&offset=k, "+spread(pageP50))
	r.set("latency_tail_ms", median(pageP99)/1e3, "p99 of the same")
	r.set("train_s", median(trains), fmt.Sprintf("POST /admin/train over %d docs, median of %d set-ups", nDocs, setupRepeats))
	r.set("peak_rss_mb", rss, "server VmHWM")
	r.set("read_rps", median(rps), fmt.Sprintf("%d closed-loop connections, %s", conns, spread(rps)))
	r.set("kb_page_p50_us", median(pageP50), spread(pageP50))
	p99note := fmt.Sprintf("n=%d in the last segment, %s", pageN, spread(pageP99))
	if !supported(pageN, 99) {
		p99note += " (UNSUPPORTED: fewer than ten samples beyond p99)"
	}
	r.set("kb_page_p99_us", median(pageP99), p99note)
	r.set("kb_filter_p50_us", median(filterP50), spread(filterP50))
	r.set("kb_full_p50_us", median(fullP50), fmt.Sprintf("%d tuples, %s", full.Total, spread(fullP50)))

	if e.trace {
		if err := traceRead(e, r, preload, check, median(pageP50)); err != nil {
			return nil, err
		}
	}
	err = s.close()
	s = nil
	return r, err
}

// newRegistry builds, in process, the session registry the binary builds
// from the workloads' flags.
func newRegistry(backend string, maxResident int) (*serve.Registry, error) {
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve: func(dom, rel string) (core.Task, []core.GoldTuple, error) {
			ref, err := fonduer.CorpusByDomain(dom, 0, 2)
			if err != nil {
				return core.Task{}, nil, err
			}
			for _, t := range ref.Tasks {
				if t.Relation == rel {
					return t, nil, nil
				}
			}
			return core.Task{}, nil, fmt.Errorf("no task %q in %q", rel, dom)
		},
		BaseOptions: core.Options{ThresholdOverride: core.Float64(threshold), Epochs: epochs, Seed: modelSeed,
			Backend: backend, MaxResidentDocs: maxResident},
		Async: true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := rg.Create(serve.TenantConfig{Name: "default", Domain: domain, Relation: relation}); err != nil {
		rg.Close()
		return nil, err
	}
	return rg, nil
}

// traceRead replays the first connection's request stream against the
// same registry in process, a span around each Handler().ServeHTTP, and
// checks that every response equals the real server's for the same URL.
func traceRead(e *env, r *result, preload [][]rawDoc, check *readCheck, e2ePageP50us float64) error {
	tr := newTracer()
	rg, err := newRegistry("memory", 0)
	if err != nil {
		return err
	}
	defer rg.Close()
	h := rg.Handler()
	serveOnce := func(name string, op int, method, url string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		tr.run(name, 0, op, func(int) { h.ServeHTTP(rec, req) })
		return rec
	}
	for i, b := range preload {
		if rec := serveOnce("serve.handler_ingest", -i-1, http.MethodPost, "/ingest", ingestBody(b)); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process ingest: status %d: %s", rec.Code, rec.Body)
		}
	}
	if rec := serveOnce("serve.handler_train", 0, http.MethodPost, "/admin/train", nil); rec.Code != http.StatusOK {
		return fmt.Errorf("in-process train: status %d: %s", rec.Code, rec.Body)
	}

	n := 4000
	if e.smoke {
		n = 200
	}
	view := rg.Get("default").CurrentView()
	var pageBytes []float64
	for i, idx := range check.rt.sequence(e.seed, 0, n) {
		op := check.rt.ops[idx]
		rec := serveOnce("serve.handler_"+readKindNames[op.kind], i+1, http.MethodGet, op.url, nil)
		body := rec.Body.Bytes()
		if op.kind != readMeta {
			want := check.first[idx].Load()
			r.check(rec.Code == http.StatusOK && (want == 0 || want == bodyHash(body)),
				"in-process GET %s: status %d, body differs from the server's", op.url, rec.Code)
		}
		if op.kind == readPage {
			pageBytes = append(pageBytes, float64(len(body)))
			// The storage layer's share of a page read: the same window
			// straight from the served table.
			tr.run("kbase.page", 0, i+1, func(int) { view.KB().Page(op.offset, pageLimit) })
		}
	}
	if err := tr.write(e.tracePath(r.Workload)); err != nil {
		return err
	}
	p50 := func(name string) float64 {
		return percentile(sorted(durationsTo(tr.durations(name), micros)), 50)
	}
	for k := readKind(0); k < numReadKinds; k++ {
		name := "serve.handler_" + readKindNames[k]
		r.set(name+"_us", p50(name), fmt.Sprintf("p50 of n=%d Handler().ServeHTTP + recorder", len(tr.durations(name))))
	}
	handler := p50("serve.handler_kb_page")
	r.set("serve.kbase_share_kb_page", p50("kbase.page")/handler, "Table.Page p50 over handler p50")
	r.set("serve.transport_share_kb_page", 1-handler/e2ePageP50us, "1 - handler p50 / end-to-end p50")
	r.set("serve.response_bytes_kb_page", median(pageBytes), "")
	return nil
}
