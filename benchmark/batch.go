package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	fonduer "repro"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/pool"
)

// The pipeline configuration of every run, batch and served alike: four
// epochs (the servers' -epochs 4), seed 1. lr, l2 and minFeatureCount are
// core's defaults, needed only by the traced run, which composes the
// layers itself.
const (
	epochs          = 4
	modelSeed       = 1
	lr              = 0.02
	l2              = 1e-4
	minFeatureCount = 2
	threshold       = 0.5
)

func batchOptions(workers int) core.Options {
	return core.Options{Epochs: epochs, Seed: modelSeed, Workers: workers}
}

// tupleHash identifies a predicted-tuple set independent of its order.
func tupleHash(keys []string) uint64 {
	keys = append([]string(nil), keys...)
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func predictedHash(predicted []core.GoldTuple) uint64 {
	keys := make([]string, len(predicted))
	for i, t := range predicted {
		keys[i] = t.Key()
	}
	return tupleHash(keys)
}

// kbcOut is one pass of raw sources -> KB on disk.
type kbcOut struct {
	wall, run, train time.Duration
	loss, f1         float64
	alignRate        float64 // mean exact-match rate of the aligner
	hash             uint64
	tuples           int
	db               *kbase.DB // the KB as written
}

// pipeline is how one pass turns parsed documents into predicted tuples:
// core.Run for the measured passes, the harness's own composition of the
// layers for the traced ones.
type pipeline func(tr *tracer, parent, op int, in *inputs, train, test []*datamodel.Document, workers int) core.Result

func runCore(tr *tracer, parent, op int, in *inputs, train, test []*datamodel.Document, workers int) core.Result {
	return core.Run(in.task, train, test, in.gold, batchOptions(workers))
}

// kbcPass parses the raw documents, runs the pipeline, writes the KB table
// and saves it under dir.
func kbcPass(tr *tracer, op int, in *inputs, trainRaw, testRaw []rawDoc, workers int, dir string, run pipeline) (kbcOut, error) {
	var out kbcOut
	var err error
	out.wall = tr.run("batch.pass", 0, op, func(pass int) {
		var train, test []*datamodel.Document
		tr.run("batch.parse", pass, op, func(id int) {
			var a, b float64
			if train, a, err = parseDocs(tr, id, op, trainRaw); err == nil {
				test, b, err = parseDocs(tr, id, op, testRaw)
			}
			out.alignRate = (a + b) / float64(len(trainRaw)+len(testRaw))
		})
		if err != nil {
			return
		}
		var res core.Result
		out.run = tr.run("core.run", pass, op, func(id int) { res = run(tr, id, op, in, train, test, workers) })
		tr.run("kbase.write_kb", pass, op, func(int) {
			out.db = kbase.NewDB()
			if _, err = fonduer.WriteKB(out.db, in.task, res.Predicted); err == nil {
				err = kbase.SaveDB(out.db, dir)
			}
		})
		out.train = res.TrainStats.TotalDuration
		out.loss = res.TrainStats.FinalLoss
		out.f1 = res.Quality.F1
		out.hash = predictedHash(res.Predicted)
		out.tuples = len(res.Predicted)
	})
	return out, err
}

func runBatch(e *env) (*result, error) {
	r := newResult("batch_kbc")
	nDocs := 160
	if e.smoke {
		nDocs = 16
	}
	dir, err := e.runDir("batch")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// peak_rss_mb is this process's own high-water mark here: start it
	// afresh, so that workloads run earlier in the same process (-workload
	// all, -repeat) do not count. Best effort; one workload per process,
	// as the driver runs it, needs neither step.
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) // 5 = reset VmHWM

	// Set-up: make the seeded inputs and run the sequential reference
	// every later pass must reproduce.
	var in *inputs
	var trainRaw, testRaw []rawDoc
	var ref kbcOut
	var setups, seqRuns []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if in, err = makeInputs(nDocs); err != nil {
			return nil, err
		}
		trainIdx, testIdx := splitOrder(e.seed, nDocs)
		trainRaw, testRaw = in.pick(trainIdx), in.pick(testIdx)
		if ref, err = kbcPass(nil, 0, in, trainRaw, testRaw, 1, filepath.Join(dir, "ref"), runCore); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		seqRuns = append(seqRuns, seconds(ref.run))
	}
	r.check(ref.tuples > 0, "reference run predicted no tuples")

	// Measured: closed loop, one caller, for the nominal seconds (at least
	// three passes). Every pass does identical work, so only the count of
	// passes depends on the machine.
	quiesce()
	var walls, runs, trains []float64
	var last kbcOut
	deadline := time.Now().Add(time.Duration(e.secs * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		out, err := kbcPass(nil, i+1, in, trainRaw, testRaw, e.nproc, filepath.Join(dir, fmt.Sprintf("kb-%d", i)), runCore)
		if err != nil {
			return nil, err
		}
		r.check(out.f1 == ref.f1 && out.hash == ref.hash,
			"pass %d: F1 %.6f / tuple hash %016x differ from the Workers:1 reference %.6f / %016x", i, out.f1, out.hash, ref.f1, ref.hash)
		walls = append(walls, seconds(out.wall))
		runs = append(runs, seconds(out.run))
		trains = append(trains, seconds(out.train))
		last = out
	}
	// The saved KB must load back to what was written.
	loaded, lerr := kbase.LoadDB(filepath.Join(dir, fmt.Sprintf("kb-%d", len(walls)-1)))
	r.check(lerr == nil && kbase.EqualDB(loaded, last.db), "saved KB does not load back to what was written (%v)", lerr)

	wall := median(walls)
	n := fmt.Sprintf("median of %d passes over %d docs", len(walls), nDocs)
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d: make inputs + Workers:1 reference pass", setupRepeats))
	r.set("throughput_per_s", float64(nDocs)/wall, "docs/s, "+n)
	r.set("latency_p50_ms", wall*1e3, "one pass, "+n)
	r.set("latency_tail_ms", sorted(walls)[len(walls)-1]*1e3, fmt.Sprintf("slowest of %d passes", len(walls)))
	r.set("train_s", median(trains), "model.Train inside core.Run, "+n)
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		r.set("peak_rss_mb", rss, "VmHWM of the benchmark process")
	}
	r.set("kbc_docs_per_s", float64(nDocs)/wall, n)
	r.set("kbc_f1", ref.f1, fmt.Sprintf("%d tuples predicted from the test half", ref.tuples))
	r.set("core.run_s", median(runs), n)
	r.set("model.final_loss", ref.loss, "")
	r.set("pool.parallel_speedup", median(seqRuns)/median(runs), fmt.Sprintf("core.Run at Workers 1 vs %d", e.nproc))

	if e.trace {
		if err := traceBatch(e, r, in, trainRaw, testRaw, dir, ref, wall, median(runs)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traceBatch runs the pass again with the pipeline composed from the
// layers' public functions, a span around each call, and derives the
// per-layer numbers. Whether that composition still predicts core.Run's
// tuples is reported (trace.replay_equal), not enforced: the composition
// is the benchmark's reading of core's defaults, not an invariant of the
// system.
func traceBatch(e *env, r *result, in *inputs, trainRaw, testRaw []rawDoc, dir string, ref kbcOut, untracedWall, untracedRun float64) error {
	tr := newTracer()
	passes := 3
	if e.smoke {
		passes = 1
	}
	var walls, rates []float64
	equal := 1.0
	stats := &layerStats{}
	for i := 0; i < passes; i++ {
		out, err := kbcPass(tr, i+1, in, trainRaw, testRaw, e.nproc, filepath.Join(dir, fmt.Sprintf("traced-%d", i)), stats.layeredRun)
		if err != nil {
			return err
		}
		if out.hash != ref.hash {
			equal = 0
		}
		walls = append(walls, seconds(out.wall))
		rates = append(rates, out.alignRate)
	}
	if err := tr.write(e.tracePath(r.Workload)); err != nil {
		return err
	}
	nDocs := float64(len(trainRaw) + len(testRaw))
	per := func(name string, denom float64) float64 {
		return micros(tr.total(name)) / float64(passes) / denom
	}
	note := fmt.Sprintf("mean of %d traced passes", passes)
	r.set("parser.parse_us_per_doc", per("parser.parse", nDocs), note)
	r.set("parser.align_us_per_doc", per("parser.align", nDocs), note)
	parseSecs := seconds(tr.total("parser.parse")+tr.total("parser.align")) / float64(passes)
	r.set("parser.mb_per_s", float64(totalBytes(trainRaw)+totalBytes(testRaw))/1e6/parseSecs, "html + vdoc bytes over parse + align time")
	r.set("parser.align_match_rate", mean(rates), "mean exact-match rate of AlignVisual")
	r.set("candidates.extract_us_per_doc", per("candidates.extract", nDocs), note)
	r.set("candidates.per_doc", float64(stats.cands)/nDocs, "")
	r.set("features.featurize_us_per_cand", per("features.featurize", float64(stats.cands)), note)
	r.set("features.cache_hit_rate", stats.cache.HitRate(), "")
	r.set("features.index_size", float64(stats.indexSize), "")
	r.set("labeling.apply_us_per_cand", per("labeling.apply", float64(stats.trainCands)), note)
	r.set("labeling.fit_ms", millis(tr.total("labeling.fit"))/float64(passes), note)
	r.set("labeling.coverage", stats.coverage, "")
	trainSecs := seconds(tr.total("model.train")) / float64(passes)
	r.set("model.train_s_per_epoch", trainSecs/epochs, note)
	r.set("model.train_us_per_example", trainSecs*1e6/epochs/float64(stats.examples), fmt.Sprintf("%d covered examples", stats.examples))
	r.set("model.classify_us_per_cand", per("model.classify", float64(stats.cands-stats.trainCands)), note)

	layers := 0.0
	for _, name := range []string{"candidates.extract", "features.featurize", "features.index", "labeling.apply", "labeling.fit", "model.train", "model.classify"} {
		layers += seconds(tr.total(name)) / float64(passes)
	}
	r.set("core.layer_residual_share", (untracedRun-layers)/untracedRun, "(core.run_s - sum of traced layer spans) / core.run_s")
	r.set("trace.overhead_share", (median(walls)-untracedWall)/untracedWall, "traced vs untraced pass")
	r.set("trace.replay_equal", equal, "1 when the layered pipeline predicts core.Run's tuples")
	return nil
}

// layerStats collects the counts the traced passes see at layer
// boundaries.
type layerStats struct {
	cands, trainCands, examples, indexSize int
	cache                                  features.CacheStats
	coverage                               float64
}

// featurize runs the feature library over a candidate list, one extractor
// (and mention cache) per document, returning each candidate's distinct
// feature names in emission order.
func featurize(cands []*candidates.Candidate, workers int) ([][]string, features.CacheStats) {
	var shards [][2]int
	for i, start := 1, 0; i <= len(cands); i++ {
		if i == len(cands) || cands[i].Doc() != cands[i-1].Doc() {
			shards = append(shards, [2]int{start, i})
			start = i
		}
	}
	names := make([][]string, len(cands))
	stats := make([]features.CacheStats, len(shards))
	pool.Run(len(shards), workers, func(si int) {
		fx := features.NewExtractor()
		for i := shards[si][0]; i < shards[si][1]; i++ {
			seen := map[string]bool{}
			for _, f := range fx.Featurize(cands[i]) {
				if !seen[f.Name] {
					seen[f.Name] = true
					names[i] = append(names[i], f.Name)
				}
			}
		}
		stats[si] = fx.Stats()
	})
	var total features.CacheStats
	for _, st := range stats {
		total.Hits += st.Hits
		total.Misses += st.Misses
	}
	return names, total
}

// rows maps feature names through a frozen index to ascending column ids.
func rows(names [][]string, ix *features.Index) [][]int {
	out := make([][]int, len(names))
	for i, ns := range names {
		for _, n := range ns {
			if id, ok := ix.Lookup(n); ok {
				out[i] = append(out[i], id)
			}
		}
		sort.Ints(out[i])
	}
	return out
}

// layeredRun is core.Run spelled out as calls into each layer's public
// functions: extract, featurize, index, LF application, label-model fit,
// train, classify.
func (s *layerStats) layeredRun(tr *tracer, parent, op int, in *inputs, train, test []*datamodel.Document, workers int) core.Result {
	task := in.task
	var trainC, testC []*candidates.Candidate
	tr.run("candidates.extract", parent, op, func(int) {
		trainC = core.ParallelExtract(task, train, candidates.DocumentScope, true, workers)
		testC = core.ParallelExtract(task, test, candidates.DocumentScope, true, workers)
	})
	var trainNames, testNames [][]string
	tr.run("features.featurize", parent, op, func(int) {
		var a, b features.CacheStats
		trainNames, a = featurize(trainC, workers)
		testNames, b = featurize(testC, workers)
		s.cache = features.CacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses}
	})
	var ix *features.Index
	var trainRows, testRows [][]int
	tr.run("features.index", parent, op, func(int) {
		counts := map[string]int{}
		for _, ns := range trainNames {
			for _, n := range ns {
				counts[n]++
			}
		}
		ix = features.IndexFromCounts(counts, minFeatureCount)
		trainRows, testRows = rows(trainNames, ix), rows(testNames, ix)
	})
	var labels *labeling.Matrix
	tr.run("labeling.apply", parent, op, func(int) {
		labels = labeling.ParallelApply(task.LFs, trainC, workers).Compact()
	})
	var marginals []float64
	var metrics labeling.Metrics
	tr.run("labeling.fit", parent, op, func(int) {
		metrics = labeling.ComputeMetrics(labels)
		marginals = labeling.Fit(labels, labeling.FitOptions{}).Marginals(labels)
	})
	var trainEx []model.Example
	for i, c := range trainC {
		if len(labels.RowLabels(i)) > 0 {
			trainEx = append(trainEx, model.Example{Cand: c, SparseFeats: trainRows[i], Marginal: marginals[i]})
		}
	}
	res := core.Result{TrainCandidates: len(trainC), TestCandidates: len(testC), NumFeatures: ix.Len(), LFMetrics: metrics, CacheStats: s.cache}
	var m *model.Model
	tr.run("model.train", parent, op, func(int) {
		m = model.NewFonduer(len(task.Args), ix.Len(), modelSeed, trainEx)
		res.TrainStats = m.Train(trainEx, model.TrainOptions{Epochs: epochs, LR: lr, L2: l2, Workers: workers})
	})
	tr.run("model.classify", parent, op, func(int) {
		seen := map[string]bool{}
		for i, c := range testC {
			if !m.Classify(model.Example{Cand: c, SparseFeats: testRows[i]}, threshold) {
				continue
			}
			if t := core.TupleFromCandidate(c); !seen[t.Key()] {
				seen[t.Key()] = true
				res.Predicted = append(res.Predicted, t)
			}
		}
	})
	res.Quality = core.EvaluateTuples(res.Predicted, core.FilterGold(in.gold, core.DocNames(test)))
	s.cands, s.trainCands, s.examples = len(trainC)+len(testC), len(trainC), len(trainEx)
	s.indexSize, s.coverage = ix.Len(), metrics.Coverage
	return res
}
