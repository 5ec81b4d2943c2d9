package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"
)

// ingestCfg is one write workload: serve_ingest and store_spill share the
// write sequence and differ in storage, size and what follows it.
type ingestCfg struct {
	name        string
	backend     string
	maxResident int     // parsed-document budget (0 = unlimited)
	docs        int     // documents uploaded in all
	preload     int     // uploaded and trained on during set-up
	trainAt     int     // POST /admin/train again once this many are in
	readRate    float64 // open-loop GET /kb?limit=50 per second beside the writes (0 = none)
	restart     bool    // then snapshot, SIGINT, resume from -store
}

// even rounds n down to whole upload batches.
func even(n float64) int { return int(n) / uploadBatch * uploadBatch }

// The document counts scale with the nominal seconds so that the write
// sequence takes about that long on the two-core machine the sizes were
// chosen on; for a given -seconds the work is fixed.
func ingestConfig(e *env) ingestCfg {
	return sized(e, ingestCfg{name: "serve_ingest", backend: "memory", docs: even(36 * e.secs), readRate: 200})
}

func spillConfig(e *env) ingestCfg {
	return sized(e, ingestCfg{name: "store_spill", backend: "disk", maxResident: 16, docs: even(24 * e.secs), restart: true})
}

// sized fills in what both write workloads share: 40 documents and one
// training in set-up, a second training half-way through the rest.
func sized(e *env, c ingestCfg) ingestCfg {
	c.preload = 40
	if e.smoke {
		c.docs, c.preload = 24, 8
	}
	c.trainAt = even(float64(c.docs+c.preload) / 2)
	return c
}

func (c ingestCfg) flags(storeDir string) []string {
	f := []string{"-backend", c.backend, "-max-resident-docs", strconv.Itoa(c.maxResident)}
	if c.restart {
		f = append(f, "-store", storeDir)
	}
	return f
}

// metaReply is the part of /meta the checks read.
type metaReply struct {
	Epoch   uint64         `json:"epoch"`
	Tables  map[string]int `json:"tables"`
	Storage struct {
		Backend          string  `json:"backend"`
		PeakResidentDocs int     `json:"peakResidentDocs"`
		PageCacheHitRate float64 `json:"pageCacheHitRate"`
	} `json:"storage"`
}

type healthReply struct {
	OK         bool `json:"ok"`
	Docs       int  `json:"docs"`
	Candidates int  `json:"candidates"`
}

// openLoop issues GET /kb?limit=50 on a fixed schedule, whatever the
// server does: each request is timed from when it was due, so the wait a
// stall imposes on later requests is counted, and how late the generator
// itself ran is kept beside it.
type openLoop struct {
	c         *caller
	latency   []float64 // microseconds from the due time
	lateness  []float64 // microseconds the send lagged its due time
	attempted int
	failures  []string
}

func (ol *openLoop) run(rate float64, stop <-chan struct{}) {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	lastEpoch := uint64(0)
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		status, body, err := ol.c.get("/kb?limit=50")
		done := time.Now()
		ol.attempted++
		var rep kbReply
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(body, &rep)
		}
		if err == nil && rep.Epoch < lastEpoch {
			err = fmt.Errorf("epoch went back from %d to %d", lastEpoch, rep.Epoch)
		}
		if err != nil {
			ol.failures = append(ol.failures, fmt.Sprintf("open-loop GET /kb?limit=50: %v", err))
			continue
		}
		lastEpoch = rep.Epoch
		ol.latency = append(ol.latency, micros(done.Sub(due)))
		ol.lateness = append(ol.lateness, micros(sent.Sub(due)))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

func runIngest(e *env, cfg ingestCfg) (*result, error) {
	r := newResult(cfg.name)
	in, err := makeInputs(cfg.docs)
	if err != nil {
		return nil, err
	}
	docs := in.pick(uploadOrder(e.seed, cfg.preload, cfg.trainAt, cfg.docs))
	all := batches(docs, uploadBatch)
	nPre := cfg.preload / uploadBatch
	bodies := make([][]byte, len(all))
	for i, b := range all {
		bodies[i] = ingestBody(b)
	}

	// Set-up: launch, upload the first documents, train the first model
	// generation.
	flags := func(runDir string) []string { return cfg.flags(filepath.Join(runDir, "store")) }
	s, setups, trains, err := e.bootRepeated(r, cfg.name, all[:nPre], flags)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	// Measured: connection A uploads closed-loop, connection B reads
	// open-loop beside it.
	quiesce()
	var reader *openLoop
	stop, readerDone := make(chan struct{}), make(chan struct{})
	if cfg.readRate > 0 {
		reader = &openLoop{c: &caller{hc: s.hc, base: s.proc.base}}
		go func() {
			defer close(readerDone)
			reader.run(cfg.readRate, stop)
		}()
	} else {
		close(readerDone)
	}
	var publish []float64
	trainDur := time.Duration(0)
	for i := nPre; i < len(all); i++ {
		d, err := s.ingest(r, all[i], bodies[i])
		if err != nil {
			break
		}
		publish = append(publish, millis(d))
		if s.docs == cfg.trainAt {
			if trainDur, err = s.trainNow(r); err != nil {
				break
			}
		}
	}
	close(stop)
	<-readerDone
	if !s.proc.alive() {
		return nil, s.proc.stop()
	}
	var readLat []float64
	if reader != nil {
		r.ok(reader.attempted - len(reader.failures))
		for _, f := range reader.failures {
			r.fail("%s", f)
		}
		s.kbGets += int64(reader.attempted)
		for _, us := range reader.latency {
			readLat = append(readLat, us/1e6)
		}
	}

	// The served state after the last publish.
	final, err := s.kb("/kb")
	if err != nil {
		return nil, err
	}
	r.check(final.Epoch == s.epoch && final.Generation == s.generation && final.Total == len(final.Tuples) && final.Total > 0,
		"final /kb: epoch %d generation %d total %d (%d tuples), want epoch %d generation %d",
		final.Epoch, final.Generation, final.Total, len(final.Tuples), s.epoch, s.generation)
	var health healthReply
	var meta metaReply
	if err := s.c.getJSON("/healthz", &health); err != nil {
		return nil, err
	}
	if err := s.c.getJSON("/meta", &meta); err != nil {
		return nil, err
	}
	r.check(health.OK && health.Docs == cfg.docs && meta.Storage.Backend == cfg.backend,
		"/healthz ok=%v docs=%d, /meta backend %q; want %d docs on %q", health.OK, health.Docs, meta.Storage.Backend, cfg.docs, cfg.backend)
	if cfg.maxResident > 0 {
		r.check(meta.Storage.PeakResidentDocs <= cfg.maxResident,
			"peakResidentDocs %d exceeds the budget %d", meta.Storage.PeakResidentDocs, cfg.maxResident)
	}
	if r.Failed == 0 {
		s.crossCheck(r, readLat)
	}
	rss := s.rss()

	asc := sorted(publish)
	measured := cfg.docs - cfg.preload
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d: launch, upload %d docs, train", setupRepeats, cfg.preload))
	r.set("throughput_per_s", float64(measured)/(sum(publish)/1e3), fmt.Sprintf("docs/s over %d uploads of %d docs", len(publish), uploadBatch))
	r.timing("latency_p50_ms", asc, 50)
	r.timing("latency_tail_ms", asc, 90)
	r.set("ingest_docs_per_s", r.Values["throughput_per_s"], fmt.Sprintf("%d docs in %.2f s of POST /ingest", measured, sum(publish)/1e3))
	r.timing("ingest_publish_p50_ms", asc, 50)
	r.timing("ingest_publish_p90_ms", asc, 90)
	r.set("ingest_publish_growth", quarterGrowth(publish), "mean of the last quarter of uploads over the first")
	r.set("train_s", seconds(trainDur), fmt.Sprintf("the mid-run POST /admin/train over %d docs (the set-ups' over %d took %.2f s)", cfg.trainAt, cfg.preload, median(trains)))
	r.set("train_generation_s", r.Values["train_s"], r.Notes["train_s"])
	if reader != nil {
		r.timing("read_during_ingest_p99_us", sorted(reader.latency), 99)
		r.timing("read_generator_lateness_p99_us", sorted(reader.lateness), 99)
	}

	if cfg.restart {
		if rss, err = resume(e, r, s, cfg, docs, health, meta, rss); err != nil {
			return nil, err
		}
	}
	r.set("peak_rss_mb", rss, "server VmHWM")

	if e.trace {
		if err := traceIngest(e, r, cfg, in, all, nPre, tupleHash(kbKeys(final.Tuples))); err != nil {
			return nil, err
		}
	}
	err = s.close()
	s = nil
	return r, err
}

// resume snapshots the session, stops the server, starts it again on the
// same -store and checks that what it serves has the rows it had. It
// returns the larger of the two processes' peak resident sets.
func resume(e *env, r *result, s *session, cfg ingestCfg, docs []rawDoc, health healthReply, meta metaReply, rss float64) (float64, error) {
	var snap struct {
		Epoch uint64 `json:"epoch"`
		Dir   string `json:"dir"`
	}
	t0 := time.Now()
	if err := s.c.callJSON(http.MethodPost, "/admin/snapshot", nil, &snap); err != nil {
		return rss, err
	}
	snapDur := time.Since(t0)
	r.check(snap.Epoch == s.epoch, "snapshot at epoch %d, served epoch %d", snap.Epoch, s.epoch)
	s.hc.CloseIdleConnections()
	if err := s.proc.stop(); err != nil {
		return rss, err
	}
	stored, err := dirBytes(snap.Dir)
	if err != nil {
		return rss, err
	}
	r.set("stored_bytes_per_input_byte", float64(stored)/float64(totalBytes(docs)),
		fmt.Sprintf("%d snapshot bytes (POST /admin/snapshot took %.0f ms) over %d uploaded bytes", stored, millis(snapDur), totalBytes(docs)))

	proc, err := startServer(e.bin, s.dir, cfg.flags(filepath.Dir(snap.Dir))...)
	if err != nil {
		return rss, err
	}
	s.proc = proc
	s.c = &caller{hc: s.hc, base: proc.base}
	r.set("resume_s", seconds(proc.startup), "exec to the first 200 from /healthz, on the snapshot")
	var health2 healthReply
	var meta2 metaReply
	if err := s.c.getJSON("/healthz", &health2); err != nil {
		return rss, err
	}
	if err := s.c.getJSON("/meta", &meta2); err != nil {
		return rss, err
	}
	r.check(health2.OK && health2.Docs == health.Docs && health2.Candidates == health.Candidates && reflect.DeepEqual(meta2.Tables, meta.Tables),
		"after the restart /healthz has %d docs %d candidates, /meta tables %v; before the snapshot %d, %d, %v",
		health2.Docs, health2.Candidates, tableList(meta2.Tables), health.Docs, health.Candidates, tableList(meta.Tables))
	// Ingestion only appends; it is the resume — load, then rehydrate every
	// document for the first view — that reads through the page cache.
	r.set("kbase.disk.cache_hit_rate", meta2.Storage.PageCacheHitRate, "/meta storage.pageCacheHitRate of the resumed server")
	return max(rss, s.rss()), nil
}

func tableList(t map[string]int) []string {
	var out []string
	for name, n := range t {
		out = append(out, fmt.Sprintf("%s:%d", name, n))
	}
	sort.Strings(out)
	return out
}
