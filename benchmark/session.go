package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
)

// uploadBatch is how many documents one POST /ingest carries.
const uploadBatch = 2

// session is one launched fonduer-serve plus what the driver knows it
// must hold: document count, epoch, model generation, and how many
// GET /kb requests it has answered.
type session struct {
	proc *serverProc
	dir  string
	hc   *http.Client
	c    *caller // the closed-loop writer connection

	docs       int
	epoch      uint64
	generation uint64
	kbGets     int64

	setup time.Duration // exec to the end of the preload's training
	train time.Duration // the preload's POST /admin/train
}

type ingestReply struct {
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	Added      int    `json:"added"`
	Docs       int    `json:"docs"`
}

type trainReply struct {
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
}

// kbReply is the part of a /kb (or /candidates) response the checks read.
type kbReply struct {
	Epoch      uint64     `json:"epoch"`
	Generation uint64     `json:"generation"`
	Total      int        `json:"total"`
	Offset     int        `json:"offset"`
	Tuples     [][]string `json:"tuples"`
	Candidates []struct {
		ID int `json:"id"`
	} `json:"candidates"`
}

// boot launches a server (at most two client connections, ever), uploads
// the preload batches and trains once, checking every reply. This is the
// set-up of every server workload. flags gives the workload's server
// flags, given the run directory the server may keep files in.
func (e *env) boot(r *result, tag string, preload [][]rawDoc, flags func(runDir string) []string) (*session, error) {
	dir, err := e.runDir(tag)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	proc, err := startServer(e.bin, dir, flags(dir)...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hc := newHTTPClient(min(e.nproc, 2))
	s := &session{proc: proc, dir: dir, hc: hc, c: &caller{hc: hc, base: proc.base}}
	for _, b := range preload {
		if _, err := s.ingest(r, b, ingestBody(b)); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.train, err = s.trainNow(r); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// bootRepeated performs the set-up setupRepeats times, stopping each server
// but the last, which it returns with every set-up's duration and training
// time in seconds.
func (e *env) bootRepeated(r *result, tag string, preload [][]rawDoc, flags func(runDir string) []string) (s *session, setups, trains []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		if s, err = e.boot(r, tag, preload, flags); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, seconds(s.setup))
		trains = append(trains, seconds(s.train))
	}
	return s, setups, trains, nil
}

// ingest posts one batch and checks that added/docs/epoch advance exactly.
// The duration is ingest-to-publish as the client sees it: the reply is
// written once the batch's epoch is published.
func (s *session) ingest(r *result, batch []rawDoc, body []byte) (time.Duration, error) {
	var rep ingestReply
	t0 := time.Now()
	err := s.c.callJSON(http.MethodPost, "/ingest", body, &rep)
	d := time.Since(t0)
	if err != nil {
		r.fail("%v", err)
		return d, err
	}
	r.check(rep.Added == len(batch) && rep.Docs == s.docs+len(batch) && rep.Epoch == s.epoch+1 && rep.Generation == s.generation,
		"ingest reply added=%d docs=%d epoch=%d generation=%d, want %d/%d/%d/%d",
		rep.Added, rep.Docs, rep.Epoch, rep.Generation, len(batch), s.docs+len(batch), s.epoch+1, s.generation)
	s.docs, s.epoch = rep.Docs, rep.Epoch
	return d, nil
}

// trainNow asks for a model generation over the served corpus and waits
// for it to be published.
func (s *session) trainNow(r *result) (time.Duration, error) {
	var rep trainReply
	t0 := time.Now()
	err := s.c.callJSON(http.MethodPost, "/admin/train", nil, &rep)
	d := time.Since(t0)
	if err != nil {
		r.fail("%v", err)
		return d, err
	}
	r.check(rep.Generation == s.generation+1 && rep.Epoch == s.epoch,
		"train reply generation=%d epoch=%d, want %d/%d", rep.Generation, rep.Epoch, s.generation+1, s.epoch)
	s.generation = rep.Generation
	return d, nil
}

// kb fetches a /kb URL on the writer connection, counting it.
func (s *session) kb(path string) (kbReply, error) {
	var rep kbReply
	err := s.c.getJSON(path, &rep)
	if err == nil {
		s.kbGets++
	}
	return rep, err
}

func kbKeys(tuples [][]string) []string {
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = fmt.Sprint(t)
	}
	return keys
}

// rss is the server's resident-set high-water mark so far.
func (s *session) rss() float64 {
	mb, err := peakRSSMB(s.proc.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return mb
}

// close stops the server (SIGINT, wait) and removes its directory.
func (s *session) close() error {
	s.hc.CloseIdleConnections()
	err := s.proc.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// crossCheck closes the loop with the server's own instruments: its
// request counter for GET /kb must equal what the driver sent, and the
// driver's median /kb latency is compared with the bucket the server's
// duration histogram puts its own median in.
func (s *session) crossCheck(r *result, kbLatencies []float64) {
	t0 := time.Now()
	status, body, err := s.c.get("/metrics")
	scrape := time.Since(t0)
	if err != nil || status != http.StatusOK {
		r.fail("GET /metrics: status %d, %v", status, err)
		return
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		r.fail("GET /metrics does not parse: %v", err)
		return
	}
	mine := func(sm obs.Sample) bool {
		return sm.Labels["tenant"] == "default" && sm.Labels["route"] == "/kb" && sm.Labels["status"] == "200"
	}
	served := -1.0
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	for _, f := range fams {
		for _, sm := range f.Samples {
			if !mine(sm) {
				continue
			}
			switch sm.Name {
			case "fonduer_http_requests_total":
				served = sm.Value
			case "fonduer_http_request_duration_seconds_bucket":
				le, err := strconv.ParseFloat(sm.Labels["le"], 64)
				if err == nil {
					buckets = append(buckets, bucket{le, sm.Value})
				}
			}
		}
	}
	delta := served - float64(s.kbGets)
	r.check(delta == 0, "server counted %.0f GET /kb 200s, the driver sent %d", served, s.kbGets)
	r.set("obs.request_count_delta", delta, fmt.Sprintf("server %.0f vs driver %d GET /kb", served, s.kbGets))
	r.set("obs.metrics_scrape_ms", millis(scrape), fmt.Sprintf("%d bytes", len(body)))

	// The server times its handler, the driver the whole exchange, so a
	// miss is information, not a failure.
	if len(buckets) == 0 || len(kbLatencies) == 0 {
		r.set("obs.histogram_p50_bucket_match", 0, "no /kb latencies to compare")
		return
	}
	half := buckets[len(buckets)-1].cum / 2 // the +Inf bucket holds the count
	lo := 0.0
	for _, b := range buckets { // exposition order is ascending le
		if b.cum >= half {
			p50 := median(kbLatencies)
			r.set("obs.histogram_p50_bucket_match", b2f(p50 > lo && p50 <= b.le),
				fmt.Sprintf("server p50 in (%gs, %gs], driver p50 %.6fs", lo, b.le, p50))
			return
		}
		lo = b.le
	}
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	if v := h.Sum64(); v != 0 {
		return v
	}
	return 1 // 0 means "not seen yet"
}
