package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/serve"
)

// The program's own stage spans (obs.Span) are filed under the harness
// span that caused them, renamed to the layer that did the work. The same
// stage name means different work at different call sites ("supervise" is
// LF application inside AddDocuments and the label-model fit inside a
// view), hence one table per call site.
var (
	addDocumentsStages = map[string]string{
		"extract": "candidates.extract", "featurize": "features.featurize",
		"supervise": "labeling.apply", "merge": "core.merge", "mirror": "kbase.mirror",
	}
	viewDeltaStages = map[string]string{
		"hydrateDelta": "core.hydrate_delta", "supervise": "labeling.fit",
		"deltaClassify": "model.delta_classify", "materializeKB": "kbase.materialize_kb",
	}
	retrainStages = map[string]string{
		"index": "features.index", "materialize": "features.materialize", "supervise": "labeling.fit_retrain",
		"train": "model.train", "classify": "model.classify", "materializeKB": "kbase.materialize_kb",
	}
)

// traceIngest replays a write workload's upload sequence in process,
// against core.Store the way the server's writer drives it — decode,
// parse, AddDocuments, ViewDelta, and Retrain at the same points — with a
// span around every call and the program's stage spans beneath them. The
// KB it ends with must be the KB the real server served.
func traceIngest(e *env, r *result, cfg ingestCfg, in *inputs, all [][]rawDoc, nPre int, finalHash uint64) error {
	tr := newTracer()
	dir, err := e.runDir(cfg.name + "-trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := core.Options{ThresholdOverride: core.Float64(threshold), Epochs: epochs, Seed: modelSeed,
		Backend: cfg.backend, MaxResidentDocs: cfg.maxResident}
	task := in.task
	task.Gold = nil // the server evaluates nothing
	st := core.NewStore(task, opts)
	defer st.Close()
	view, err := st.View(nil)
	if err != nil {
		return err
	}

	var trained *core.StoreView
	generation := uint64(0)
	retrain := func(op int) error {
		generation++
		var rerr error
		tr.run("core.retrain", 0, op, func(id int) {
			if trained, rerr = view.Retrain(core.RetrainConfig{Generation: generation, WarmFrom: view}); rerr == nil {
				tr.adopt(id, op, retrainStages, trained.StageSpans())
			}
		})
		if rerr != nil {
			return rerr
		}
		// The writer's catch-up step when delta epochs landed during a
		// retrain; here a probe, since the replay is sequential.
		tr.run("core.adopt_model", 0, op, func(int) { _, rerr = view.AdoptModel(trained, nil) })
		view = trained
		return rerr
	}

	nDocs, nCands := 0, 0
	for i, batch := range all {
		op := i + 1
		body := ingestBody(batch)
		var perr error
		tr.run("ingest.publish", 0, op, func(pub int) {
			tr.run("serve.ingest_decode", pub, op, func(int) {
				var req struct {
					Documents []serve.DocumentUpload `json:"documents"`
				}
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				perr = dec.Decode(&req)
			})
			var docs []*datamodel.Document
			if perr == nil {
				docs, _, perr = parseDocs(tr, pub, op, batch)
			}
			if perr != nil {
				return
			}
			tr.run("core.add_documents", pub, op, func(id int) {
				perr = st.AddDocuments(docs...)
				tr.adopt(id, op, addDocumentsStages, st.TakeIngestSpans())
			})
			if perr != nil {
				return
			}
			tr.run("core.view_delta", pub, op, func(id int) {
				var nv *core.StoreView
				if nv, perr = st.ViewDelta(view, nil); perr == nil {
					tr.adopt(id, op, viewDeltaStages, nv.StageSpans())
					view = nv
				}
			})
		})
		if perr != nil {
			return fmt.Errorf("replaying upload %d: %w", i, perr)
		}
		nDocs += len(batch)
		nCands = len(view.Candidates())
		if i == nPre-1 || nDocs == cfg.trainAt {
			if err := retrain(op); err != nil {
				return err
			}
		}
	}
	replayHash := tupleHash(kbKeys(stringTuples(view)))
	r.check(replayHash == finalHash, "the in-process replay ends with KB %016x, the server served %016x", replayHash, finalHash)

	if cfg.restart {
		snap := filepath.Join(dir, "snapshot")
		var serr error
		tr.run("core.snapshot", 0, 0, func(int) { serr = st.Snapshot(snap) })
		if serr != nil {
			return serr
		}
		tr.run("core.open_store", 0, 0, func(int) {
			var st2 *core.Store
			if st2, serr = core.OpenStore(snap, task, opts); serr == nil {
				serr = st2.Close()
			}
		})
		if serr != nil {
			return serr
		}
		r.set("core.snapshot_ms", millis(tr.total("core.snapshot")), "Store.Snapshot")
		r.set("core.open_store_ms", millis(tr.total("core.open_store")), "core.OpenStore (no training)")
		r.set("core.peak_resident_docs", float64(st.StorageStats().PeakResidentDocs), fmt.Sprintf("budget %d", cfg.maxResident))
		if err := traceEngines(e, r, tr, st.DB(), dir); err != nil {
			return err
		}
	}
	if err := tr.write(e.tracePath(r.Workload)); err != nil {
		return err
	}

	// Per-layer numbers over the measured uploads (the preload's are
	// set-up, as in the untraced run).
	per := func(name string, denom int) float64 { return micros(tr.total(name)) / float64(denom) }
	ms := func(name string) []float64 { return durationsTo(tr.durations(name), millis) }
	note := fmt.Sprintf("over %d docs, %d candidates", nDocs, nCands)
	r.set("parser.parse_us_per_doc", per("parser.parse", nDocs), note)
	r.set("parser.align_us_per_doc", per("parser.align", nDocs), note)
	r.set("parser.mb_per_s", float64(totalBytes(flatten(all)))/1e6/seconds(tr.total("parser.parse")+tr.total("parser.align")), "html + vdoc bytes over parse + align time")
	r.set("candidates.extract_us_per_doc", per("candidates.extract", nDocs), note)
	r.set("candidates.per_doc", float64(nCands)/float64(nDocs), "")
	r.set("features.featurize_us_per_cand", per("features.featurize", nCands), note)
	r.set("features.cache_hit_rate", view.Result().CacheStats.HitRate(), "")
	r.set("features.index_size", float64(view.FeatureStats().RunFeatures), "columns of the last trained generation")
	r.set("labeling.apply_us_per_cand", per("labeling.apply", nCands), note)
	fits := ms("labeling.fit")
	r.set("labeling.fit_ms", median(fits), fmt.Sprintf("median of %d delta publishes; last/first quarter %.2f", len(fits), quarterGrowth(fits[nPre:])))
	r.set("labeling.coverage", view.LFMetrics().Coverage, "")
	r.set("model.classify_us_per_cand", per("model.delta_classify", nCands), "delta classification, "+note)
	if trained != nil {
		ts := trained.Result().TrainStats
		r.set("model.train_s_per_epoch", ts.SecsPerEpoch, "the last retrain")
		r.set("model.train_us_per_example", seconds(ts.TotalDuration)*1e6/float64(ts.Epochs)/float64(trained.Result().TrainCandidates), "per candidate of the retrained corpus")
		r.set("model.final_loss", ts.FinalLoss, "")
		retrains := durationsTo(tr.durations("core.retrain"), seconds)
		r.set("core.retrain_s", retrains[len(retrains)-1], fmt.Sprintf("StoreView.Retrain over %d docs", trained.NumDocs()))
		adopts := ms("core.adopt_model")
		r.set("core.adopt_model_ms", adopts[len(adopts)-1], "StoreView.AdoptModel: reclassify the corpus")
	}
	r.set("core.add_documents_ms_per_doc", per("core.add_documents", nDocs)/1e3, note)
	deltas := ms("core.view_delta")[nPre:]
	r.set("core.view_delta_ms", median(deltas), fmt.Sprintf("median of %d", len(deltas)))
	r.set("core.view_delta_growth", quarterGrowth(deltas), "mean of the last quarter over the first")
	r.set("serve.ingest_decode_ms", median(ms("serve.ingest_decode")), "JSON-decoding one upload as the handler does")
	r.set("trace.replay_equal", b2f(replayHash == finalHash), "1 when the replay's final KB is the server's")

	// The ROADMAP's budget for one ingest-to-publish: self time per span
	// name, per upload.
	r.Budget = map[string]float64{}
	for name, d := range tr.selfByName() {
		if len(tr.durations(name)) >= len(all) { // once per upload or more: on the publish path
			r.Budget[name] = millis(d) / float64(len(all))
		}
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// quarterGrowth is the mean of the last quarter of xs over the first's.
func quarterGrowth(xs []float64) float64 {
	q := max(1, len(xs)/4)
	if len(xs) == 0 || mean(xs[:q]) == 0 {
		return 0
	}
	return mean(xs[len(xs)-q:]) / mean(xs[:q])
}

func flatten(all [][]rawDoc) []rawDoc {
	var out []rawDoc
	for _, b := range all {
		out = append(out, b...)
	}
	return out
}

// stringTuples renders a view's KB the way /kb serves it.
func stringTuples(v *core.StoreView) [][]string {
	var out [][]string
	for _, t := range v.KB().Tuples() {
		row := make([]string, len(t))
		for i, c := range t {
			row[i] = fmt.Sprint(c)
		}
		out = append(out, row)
	}
	return out
}
