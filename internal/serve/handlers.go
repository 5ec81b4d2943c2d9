package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/kbase"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/pool"
)

// Handler returns the HTTP API. Every response body carries the epoch
// it was served from; handlers load the published view exactly once, so
// a response can never mix state from two epochs.
//
//	GET  /healthz         liveness + epoch summary
//	GET  /kb              KB tuples: relation/column filters, pagination
//	GET  /candidates      candidates with mentions, votes, marginals
//	GET  /marginals       denoised per-candidate marginals
//	GET  /lfmetrics       labeling-function development metrics
//	GET  /features        feature-space statistics (+ admitted names)
//	GET  /meta            session metadata: schema, docs, config, quality
//	POST /ingest          online document ingestion (retrains, publishes)
//	POST /classify        ad-hoc classification, no store mutation
//	POST /admin/snapshot  persist the session to disk
//	GET  /admin/traces    recent publication traces (span trees)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// reg registers one route, wrapping it with the request counter
	// and latency histogram when the session is instrumented. The
	// route label is the pattern's path part — a fixed table, so the
	// metric label set stays bounded.
	reg := func(pattern string, h http.HandlerFunc) {
		if s.metrics != nil {
			route := pattern[strings.IndexByte(pattern, ' ')+1:]
			h = s.metrics.instrument(s.name, route, h)
		}
		mux.HandleFunc(pattern, h)
	}
	reg("GET /healthz", s.handleHealthz)
	reg("GET /kb", s.handleKB)
	reg("GET /candidates", s.handleCandidates)
	reg("GET /marginals", s.handleMarginals)
	reg("GET /lfmetrics", s.handleLFMetrics)
	reg("GET /features", s.handleFeatures)
	reg("GET /meta", s.handleMeta)
	reg("POST /ingest", s.handleIngest)
	reg("POST /classify", s.handleClassify)
	reg("POST /admin/snapshot", s.handleSnapshot)
	reg("POST /admin/train", s.handleTrain)
	reg("GET /admin/traces", s.handleTraces)
	return mux
}

// ---- Errors and JSON plumbing.

// statusFor is the one error → HTTP status table, for every handler of
// the server and the registry (README, "Errors over HTTP"): the request
// is wrong 400, unknown tenant 404, a taken name 409, a target that
// cannot take it now — failed tenant, closed server or registry — 503,
// anything else (a snapshot directory that cannot be written, a retrain
// that failed) 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidDocument), errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, core.ErrDocumentExists), errors.Is(err, ErrTenantExists):
		return http.StatusConflict
	case errors.Is(err, errFailed), errors.Is(err, errClosed), errors.Is(err, errRegistryClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeErr answers err with its status from the table.
func writeErr(w http.ResponseWriter, err error) {
	writeError(w, statusFor(err), "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// The status line is gone, so the client can't be told — but
		// the failure must not vanish: a write error (client hung up)
		// and an encode error (a payload that doesn't marshal — a
		// server bug) are counted separately and logged at debug.
		kind := "encode"
		var ne *net.OpError
		if errors.As(err, &ne) || errors.Is(err, http.ErrHandlerTimeout) {
			kind = "write"
			respErrWrite.Add(1)
		} else {
			respErrEncode.Add(1)
		}
		obs.Log().Debug("response failed after status was written",
			"kind", kind, "status", status, "error", err)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

// pageParams parses offset/limit query parameters (limit 0 or absent
// means "to the end").
func pageParams(r *http.Request) (offset, limit int, err error) {
	q := r.URL.Query()
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return offset, limit, nil
}

// pageBounds clips [offset, offset+limit) to n elements. The clamp
// compares limit against the remaining window instead of computing
// offset+limit, which a huge client-supplied limit would overflow.
func pageBounds(n, offset, limit int) (lo, hi int) {
	if offset > n {
		offset = n
	}
	hi = n
	if limit > 0 && limit < hi-offset {
		hi = offset + limit
	}
	return offset, hi
}

// ---- Document uploads.

// DocumentUpload is one document in an ingest or classify request.
type DocumentUpload struct {
	Name string `json:"name"`
	// Format is "html" (default) or "xml".
	Format string `json:"format,omitempty"`
	Source string `json:"source"`
	// VDoc optionally carries the rendered visual layout to align
	// (HTML documents only).
	VDoc string `json:"vdoc,omitempty"`
}

func parseUpload(u DocumentUpload) (*datamodel.Document, error) {
	if u.Name == "" {
		return nil, fmt.Errorf("document needs a name")
	}
	if u.Source == "" {
		return nil, fmt.Errorf("document %q has no source", u.Name)
	}
	return parser.Parse(u.Name, u.Format, u.Source, u.VDoc)
}

// ---- Read endpoints.

// buildPayload is the process's build identity, as /healthz carries it.
func buildPayload() map[string]string {
	b := obs.BuildInfo()
	return map[string]string{"version": b.Version, "revision": b.Revision, "go": b.GoVersion}
}

// healthzPayload is the per-session liveness summary; the registry
// reuses it for its per-tenant aggregation. ok is false while the
// session is degraded (applied-but-unpublished mutations).
func (s *Server) healthzPayload() map[string]any {
	v := s.CurrentView()
	p := map[string]any{
		"ok":            true,
		"epoch":         v.Epoch(),
		"generation":    v.Generation(),
		"relation":      v.Relation(),
		"docs":          v.NumDocs(),
		"candidates":    len(v.Candidates()),
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"build":         buildPayload(),
	}
	if d := s.Degraded(); d != nil {
		p["ok"] = false
		p["degraded"] = d
	}
	return p
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthzPayload())
}

func (s *Server) handleKB(w http.ResponseWriter, r *http.Request) {
	v := s.CurrentView()
	q := r.URL.Query()
	if rel := q.Get("relation"); rel != "" && rel != v.Relation() {
		writeError(w, http.StatusNotFound, "relation %q is not served here (serving %q)", rel, v.Relation())
		return
	}
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	schema := v.Schema()
	// Column filters: any query parameter named after a schema column
	// selects tuples whose rendered value matches exactly.
	var filters []kbase.Pred
	for name, vals := range q {
		switch name {
		case "relation", "offset", "limit":
			continue
		}
		idx := schema.ColIndex(name)
		if idx < 0 {
			writeError(w, http.StatusBadRequest, "relation %s has no column %q", schema.Name, name)
			return
		}
		// Column filters are exact single-valued matches. A repeated
		// parameter (?part=X&part=Y) used to silently keep only the
		// first value and return rows the client didn't ask for;
		// rejecting it keeps the contract unambiguous (OR-matching is
		// the documented non-feature — clients issue one request per
		// value).
		if len(vals) != 1 {
			writeError(w, http.StatusBadRequest,
				"column filter %q given %d times; filters accept exactly one value", name, len(vals))
			return
		}
		filters = append(filters, kbase.Pred{Col: idx, Want: vals[0]})
	}
	// The predicates (none for a plain page read) and the window are
	// pushed into the table: its planner answers through a lazy hash
	// index or a scan of the served KB (always the memory kind), cloning
	// only the served window and returning the exact match total.
	t0 := time.Now()
	page, total, plan := v.KB().PageWhereInfo(filters, offset, limit)
	switch plan.Plan {
	case "index":
		s.kbIndexReads.Inc()
	case "scan":
		s.kbScanReads.Inc()
	}
	if thr := obs.SlowQueryThreshold(); thr > 0 && len(filters) > 0 {
		if dur := time.Since(t0); dur >= thr {
			// One structured line per slow filtered read: the plan the
			// table chose, the predicates and the wall time that crossed
			// -slow-query-ms.
			preds := make([]string, len(filters))
			for i, f := range filters {
				preds[i] = schema.Columns[f.Col].Name + "=" + fmt.Sprint(f.Want)
			}
			obs.Log().Warn("slow query", "tenant", s.name, "route", "/kb",
				"plan", plan.Plan, "preds", preds,
				"rows", total, "durationMs", float64(dur.Nanoseconds())/1e6)
		}
	}
	if page == nil {
		page = []kbase.Tuple{} // serialize as [], never null
	}
	cols := make([]string, schema.Arity())
	for i, c := range schema.Columns {
		cols[i] = c.Name
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      v.Epoch(),
		"generation": v.Generation(),
		"relation":   v.Relation(),
		"columns":    cols,
		"total":      total,
		"offset":     min(offset, total),
		"tuples":     page,
	})
}

// mentionJSON locates one candidate argument in its document.
type mentionJSON struct {
	Type     string `json:"type"`
	Sentence int    `json:"sentence"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Text     string `json:"text"`
}

// candidateJSON is one served candidate.
type candidateJSON struct {
	ID       int           `json:"id"`
	Doc      string        `json:"doc"`
	Values   []string      `json:"values"`
	Marginal float64       `json:"marginal"`
	Votes    []int8        `json:"votes"`
	Mentions []mentionJSON `json:"mentions"`
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	v := s.CurrentView()
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	docFilter := r.URL.Query().Get("doc")
	cands := v.Candidates()
	marginals := v.Marginals()
	sel := make([]int, 0, len(cands))
	for i, c := range cands {
		if docFilter != "" && c.Doc().Name != docFilter {
			continue
		}
		sel = append(sel, i)
	}
	lo, hi := pageBounds(len(sel), offset, limit)
	out := make([]candidateJSON, 0, hi-lo)
	for _, i := range sel[lo:hi] {
		c := cands[i]
		cj := candidateJSON{
			ID:       c.ID,
			Doc:      c.Doc().Name,
			Values:   c.Values(),
			Marginal: marginals[i],
			Votes:    v.Votes(i),
		}
		for _, m := range c.Mentions {
			cj.Mentions = append(cj.Mentions, mentionJSON{
				Type:     m.TypeName,
				Sentence: m.Span.Sentence.Position,
				Start:    m.Span.Start,
				End:      m.Span.End,
				Text:     m.Span.Text(),
			})
		}
		out = append(out, cj)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      v.Epoch(),
		"total":      len(sel),
		"offset":     lo,
		"candidates": out,
	})
}

func (s *Server) handleMarginals(w http.ResponseWriter, r *http.Request) {
	v := s.CurrentView()
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := v.Marginals()
	lo, hi := pageBounds(len(m), offset, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     v.Epoch(),
		"total":     len(m),
		"offset":    lo,
		"marginals": m[lo:hi],
	})
}

func (s *Server) handleLFMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.CurrentView()
	metrics := v.LFMetrics()
	names := v.LFNames()
	perLF := make([]map[string]any, len(metrics.PerLF))
	for i, lm := range metrics.PerLF {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		perLF[i] = map[string]any{
			"name":     name,
			"coverage": lm.Coverage,
			"overlap":  lm.Overlap,
			"conflict": lm.Conflict,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":    v.Epoch(),
		"coverage": metrics.Coverage,
		"overlap":  metrics.Overlap,
		"conflict": metrics.Conflict,
		"perLF":    perLF,
	})
}

func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	v := s.CurrentView()
	offset, limit, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stats := v.FeatureStats()
	names := v.FeatureNames()
	lo, hi := pageBounds(len(names), offset, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":            v.Epoch(),
		"runFeatures":      stats.RunFeatures,
		"sessionFeatures":  stats.SessionFeatures,
		"pendingFeatures":  stats.PendingFeatures,
		"distinctFeatures": stats.DistinctFeatures,
		"offset":           lo,
		"names":            names[lo:hi],
	})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metaPayload())
}

// metaPayload builds the full /meta body; the registry reuses it for
// the default-tenant alias and decorates it with fleet-wide state.
func (s *Server) metaPayload() map[string]any {
	v := s.CurrentView()
	schema := v.Schema()
	cols := make([]map[string]string, schema.Arity())
	for i, c := range schema.Columns {
		cols[i] = map[string]string{"name": c.Name, "type": c.Type.String()}
	}
	res := v.Result()
	// The storage section is the operator's view of the pluggable
	// engine: which backend materializes the session's relations and how
	// its page cache did — sampled when the view published — and how the
	// query planner has answered the tenant's filtered /kb reads, counted
	// as they were served (the same counts /metrics exposes).
	st := v.StorageStats()
	p := map[string]any{
		"epoch": v.Epoch(),
		// Two-phase publication state: which model generation this
		// epoch serves, the epoch whose corpus trained it, and the
		// staleness gap delta epochs have opened since. In synchronous
		// mode the lag is always 0.
		"generation":          v.Generation(),
		"modelTrainedAtEpoch": v.ModelTrainedAtEpoch(),
		"trainLagEpochs":      v.Epoch() - v.ModelTrainedAtEpoch(),
		"asyncPublish":        s.async,
		"relation":            v.Relation(),
		"schema":              map[string]any{"name": schema.Name, "columns": cols},
		"docs":                v.DocNames(),
		"lfNames":             v.LFNames(),
		"tables":              v.TableRows(),
		"quality": map[string]float64{
			"precision": res.Quality.Precision,
			"recall":    res.Quality.Recall,
			"f1":        res.Quality.F1,
		},
		"candidates":  len(v.Candidates()),
		"numFeatures": res.NumFeatures,
		"kbEntries":   v.KB().Len(),
		"storage": map[string]any{
			"backend":          st.Backend,
			"docs":             st.Docs,
			"diskPages":        st.DiskPages,
			"pageCacheHits":    st.PageCacheHits,
			"pageCacheMisses":  st.PageCacheMisses,
			"pageCacheHitRate": st.PageCacheHitRate,
			"indexHits":        int64(s.kbIndexReads.Value()),
			"fullScans":        int64(s.kbScanReads.Value()),
		},
	}
	// The most recent publication's span tree; the full ring is at
	// GET /admin/traces.
	if ts := s.traces.Snapshot(); len(ts) > 0 {
		p["trace"] = ts[0]
	}
	if d := s.Degraded(); d != nil {
		p["degraded"] = d
	}
	return p
}

// handleTraces serves the session's buffered publication traces,
// newest first — the operator's answer to "where did that retrain
// spend its time".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	v := s.CurrentView()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":  v.Epoch(),
		"traces": s.traces.Snapshot(),
	})
}

// ---- Write endpoints.

type ingestRequest struct {
	Documents []DocumentUpload `json:"documents"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Documents) == 0 {
		writeError(w, http.StatusBadRequest, "ingest request has no documents")
		return
	}
	// The documents parse side by side, under the shared pool limit like
	// every other stage; the refusal names the first bad one in upload
	// order, whatever the schedule.
	docs, errs := make([]*datamodel.Document, len(req.Documents)), make([]error, len(req.Documents))
	pool.Run(len(docs), s.workers, func(i int) { docs[i], errs[i] = parseUpload(req.Documents[i]) })
	for _, err := range errs {
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	view, err := s.Ingest(docs)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      view.Epoch(),
		"generation": view.Generation(),
		"added":      len(docs),
		"docs":       view.NumDocs(),
		"candidates": len(view.Candidates()),
	})
}

// handleTrain retrains the model over the currently served corpus and
// publishes the new generation (POST /admin/train). In async mode
// this is the manual version of what the background trainer does on
// drift/interval triggers; in synchronous mode it is an explicit
// retrain without ingesting anything.
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	view, err := s.Train()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":               view.Epoch(),
		"generation":          view.Generation(),
		"modelTrainedAtEpoch": view.ModelTrainedAtEpoch(),
		"durationMs":          float64(time.Since(t0).Nanoseconds()) / 1e6,
	})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var u DocumentUpload
	if !readJSON(w, r, &u) {
		return
	}
	doc, err := parseUpload(u)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v := s.CurrentView()
	res, err := v.ClassifyDocument(doc)
	if err != nil {
		writeErr(w, err)
		return
	}
	cands := make([]map[string]any, len(res.Candidates))
	for i, c := range res.Candidates {
		cands[i] = map[string]any{
			"values":   c.Values,
			"marginal": c.Marginal,
			"positive": c.Positive,
		}
	}
	tuples := make([][]string, len(res.Tuples))
	for i, t := range res.Tuples {
		tuples[i] = t.Values
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      v.Epoch(),
		"relation":   v.Relation(),
		"doc":        doc.Name,
		"candidates": cands,
		"tuples":     tuples,
	})
}

// ---- Admin endpoints.

type snapshotRequest struct {
	Dir string `json:"dir,omitempty"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	if r.ContentLength != 0 {
		if !readJSON(w, r, &req) {
			return
		}
	}
	dir, epoch, err := s.Snapshot(req.Dir)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "dir": dir})
}
