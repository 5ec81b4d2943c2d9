package fonduer

// Per-layer micro benchmarks: one row per layer of the system — parse,
// align, tokenize, featurize (mention cache on/off), sparse
// representations, train, classify, full pipeline runs, store
// ingestion, snapshot and resume, kbase insert, label-model fit, delta
// views and the serving handlers — each with a real -benchtime and,
// where allocation is part of the contract, ReportAllocs. These are
// for measuring while you work; the repository's end-to-end numbers
// come from `go run ./benchmark` (BENCHMARK.json), and the paper's
// tables and figures are regenerated by cmd/fonduer-bench and asserted
// by internal/experiments' tests, not timed here.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/model"
	"repro/internal/nlp"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchCfg() experiments.Config { return experiments.FastConfig() }

// BenchmarkRunSequential / BenchmarkRunParallel time one full pipeline
// run (ELEC, first relation) at Workers=1 vs the full pool, so
// `go test -bench=BenchmarkRun` prints the end-to-end contrast.
func BenchmarkRunSequential(b *testing.B) { benchRunWorkers(b, 1) }

// BenchmarkRunParallel is the GOMAXPROCS-pool counterpart.
func BenchmarkRunParallel(b *testing.B) { benchRunWorkers(b, 0) }

func benchRunWorkers(b *testing.B, workers int) {
	cfg := benchCfg()
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	task := elec.Tasks[0]
	train, test := elec.Split()
	gold := elec.GoldTuples[task.Relation]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(task, train, test, gold, core.Options{
			Seed: cfg.Seed, Epochs: cfg.Epochs, Workers: workers})
		b.ReportMetric(res.Quality.F1, "F1")
	}
}

// BenchmarkIngestScratch vs BenchmarkIngestIncremental contrast the
// two ways of growing a knowledge-base session by B batches of
// documents: rebuilding the whole store from scratch after every
// batch (what a store-less pipeline forces) versus Store.AddDocuments
// ingesting each batch's delta only. Both end in the identical store
// state; the incremental path does O(corpus) total stage work instead
// of O(corpus * batches).
const ingestBatches = 6

func ingestCorpus() (*synth.Corpus, [][]*Document) {
	elec := synth.Electronics(8, 24)
	per := (len(elec.Docs) + ingestBatches - 1) / ingestBatches
	var batches [][]*Document
	for lo := 0; lo < len(elec.Docs); lo += per {
		hi := lo + per
		if hi > len(elec.Docs) {
			hi = len(elec.Docs)
		}
		batches = append(batches, elec.Docs[lo:hi])
	}
	return elec, batches
}

// BenchmarkIngestScratch rebuilds the session from scratch after each
// arriving batch.
func BenchmarkIngestScratch(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= len(batches); k++ {
			st := core.NewStore(task, core.Options{})
			for _, batch := range batches[:k] {
				if err := st.AddDocuments(batch...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkIngestIncremental ingests each batch's delta into one
// long-lived store.
func BenchmarkIngestIncremental(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOpenStore is resume's own layer: OpenStore of a 120-document
// electronics snapshot — column checks, the one pass per relation file
// and every document rebuilt. B/op is what a resumed process allocates
// before it serves anything.
func BenchmarkOpenStore(b *testing.B) {
	elec := synth.Electronics(1, 120)
	task := elec.Tasks[0]
	st := core.NewStore(task, core.Options{})
	if err := st.AddDocuments(elec.Docs...); err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "snap")
	if err := st.Snapshot(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OpenStore(dir, task, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeKBRead / BenchmarkServeMixedRead establish the
// serving subsystem's read-throughput baseline: concurrent clients
// querying a populated store through the full HTTP handler stack
// (request routing and instrumentation, snapshot-view loading, the
// table's page read, the body appended into a pooled buffer) without
// network overhead. ns/op is the per-query latency, allocs/op and B/op
// include the recorder and request each query builds; queries/sec is
// reported as a custom metric.
func BenchmarkServeKBRead(b *testing.B) {
	benchServeRead(b, []string{"/kb"})
}

// BenchmarkServeMixedRead rotates through every read endpoint,
// approximating a mixed dashboard workload.
func BenchmarkServeMixedRead(b *testing.B) {
	benchServeRead(b, []string{"/kb", "/candidates?limit=10", "/marginals", "/lfmetrics", "/features", "/meta", "/healthz"})
}

// benchTenant builds the session a serving benchmark drives: tenant
// "default" of a registry of its own, serving elec's first task and its
// gold at Seed 1 and 2 epochs. Close the registry when done.
func benchTenant(b *testing.B, elec *synth.Corpus) (*serve.Registry, *serve.Server) {
	b.Helper()
	task := elec.Tasks[0]
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve: func(string, string) (core.Task, []core.GoldTuple, error) {
			return task, elec.GoldTuples[task.Relation], nil
		},
		BaseOptions: core.Options{Seed: 1, Epochs: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rg.Create(serve.TenantConfig{Name: "default"}); err != nil {
		rg.Close()
		b.Fatal(err)
	}
	return rg, rg.Get("default")
}

func benchServeRead(b *testing.B, paths []string) {
	elec := synth.Electronics(8, 16)
	rg, srv := benchTenant(b, elec)
	defer rg.Close()
	if _, err := srv.Ingest(elec.Docs); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Train(); err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	// Warm up every route before the clock starts: the first request
	// pays one-time lazy initialization (JSON encoder states, route
	// dispatch, view field materialization), a ~2x cold-start outlier
	// in short runs.
	for _, path := range paths {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d for %s", rec.Code, path)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		// Requests must be per-iteration: ServeMux writes routing
		// state (r.Pattern) into the request on dispatch.
		i := 0
		for pb.Next() {
			path := paths[i%len(paths)]
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d for %s", rec.Code, path)
			}
			i++
		}
	})
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "queries/sec")
	}
}

// BenchmarkServeMultiTenantRead measures the session registry's read
// path under a mixed fleet workload: 8 populated tenants in one
// registry, concurrent clients rotating reads across every tenant's
// /t/<name>/kb and /t/<name>/meta routes. Relative to
// BenchmarkServeKBRead this adds the registry's routing layer (tenant
// lookup under RLock + StripPrefix) per request — the multi-tenant
// overhead the registry design promises to keep negligible.
func BenchmarkServeMultiTenantRead(b *testing.B) {
	const nTenants = 8
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve: func(domain, relation string) (core.Task, []core.GoldTuple, error) {
			elec := synth.Electronics(8, 2)
			return elec.Tasks[0], nil, nil
		},
		BaseOptions: core.Options{Seed: 1, Epochs: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rg.Close()
	var paths []string
	for i := 0; i < nTenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		if _, err := rg.Create(serve.TenantConfig{Name: name, Domain: "electronics"}); err != nil {
			b.Fatal(err)
		}
		corpus := synth.Electronics(int64(100+i), 8)
		if _, err := rg.Get(name).Ingest(corpus.Docs); err != nil {
			b.Fatal(err)
		}
		if _, err := rg.Get(name).Train(); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, "/t/"+name+"/kb", "/t/"+name+"/meta")
	}
	handler := rg.Handler()
	// Warm sweep before the clock starts, for the same cold-start
	// reason as benchServeRead.
	for _, path := range paths {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d for %s", rec.Code, path)
		}
	}
	b.ResetTimer()
	start := time.Now()
	// One op sweeps every tenant route once, so even a single-iteration
	// run (-benchtime 1x) averages over the whole fleet instead of
	// timing one request.
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for _, path := range paths {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d for %s", rec.Code, path)
				}
			}
		}
	})
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(paths))/secs, "queries/sec")
	}
}

// BenchmarkFeatureCacheOn / Off reproduce Appendix C.1: featurization
// with and without the mention-level cache.
func BenchmarkFeatureCacheOn(b *testing.B) { benchCache(b, true) }

// BenchmarkFeatureCacheOff is the uncached baseline of Appendix C.1.
func BenchmarkFeatureCacheOff(b *testing.B) { benchCache(b, false) }

func benchCache(b *testing.B, useCache bool) {
	elec := synth.Electronics(1, 10)
	task := elec.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: DocumentScope}
	cands := ext.ExtractAll(elec.Docs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx := features.NewExtractor()
		fx.UseCache = useCache
		for _, c := range cands {
			fx.Featurize(c)
		}
	}
}

// BenchmarkSparseLILUpdate / COOUpdate / LILQuery / COOQuery reproduce
// Appendix C.2's representation tradeoff.
func BenchmarkSparseLILUpdate(b *testing.B) { benchSparseUpdate(b, sparse.NewLIL()) }

// BenchmarkSparseCOOUpdate measures the append-optimized path.
func BenchmarkSparseCOOUpdate(b *testing.B) { benchSparseUpdate(b, sparse.NewCOO()) }

func benchSparseUpdate(b *testing.B, m sparse.Matrix) {
	for r := 0; r < 2000; r++ {
		for k := 0; k < 60; k++ {
			m.Set(r, (r*31+k*977)%10000, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(i%2000, i%10000, float64(i%3-1))
	}
}

// BenchmarkSparseLILQuery measures the read-optimized path.
func BenchmarkSparseLILQuery(b *testing.B) { benchSparseQuery(b, sparse.NewLIL()) }

// BenchmarkSparseCOOQuery measures row queries against the log layout.
func BenchmarkSparseCOOQuery(b *testing.B) { benchSparseQuery(b, sparse.NewCOO()) }

func benchSparseQuery(b *testing.B, m sparse.Matrix) {
	for r := 0; r < 500; r++ {
		for k := 0; k < 40; k++ {
			m.Set(r, (r*31+k*977)%5000, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Row(i % 500)
	}
}

// BenchmarkParseHTML measures document ingestion.
func BenchmarkParseHTML(b *testing.B) {
	elec := synth.Electronics(2, 1)
	src := elec.Sources[0]["html"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parser.ParseHTML("bench", src)
	}
}

// BenchmarkAlignVisual measures the HTML-vdoc word alignment.
func BenchmarkAlignVisual(b *testing.B) {
	elec := synth.Electronics(3, 1)
	src := elec.Sources[0]
	v, err := parser.ParseVDoc(src["vdoc"])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := parser.ParseHTML("bench", src["html"])
		parser.AlignVisual(d, v)
	}
}

// BenchmarkTokenize measures the NLP tokenizer.
func BenchmarkTokenize(b *testing.B) {
	const text = "The SMBT3904 is rated at 200 mA collector current, with VCEO of 40 V and storage temperature -65 ... 150 C."
	for i := 0; i < b.N; i++ {
		nlp.Tokenize(text)
	}
}

// BenchmarkTrain is the training layer as every server and the
// repository benchmark run it: one Adam step per example. Beside ns/op
// (two epochs, model construction included) it reports the cost of one
// example and — the kernel's contract — how many objects one example
// allocates: the whole run's count spread over its steps, which
// construction, encoding and the tape's warm-up account for.
func BenchmarkTrain(b *testing.B) {
	task, numFeatures, exs := benchTrainCorpus(b)
	const epochs = 2
	perItem := startPerItem(b)
	for i := 0; i < b.N; i++ {
		m := model.NewFonduer(len(task.Args), numFeatures, 1, exs)
		st := m.Train(exs, model.TrainOptions{Epochs: epochs})
		b.ReportMetric(st.SecsPerEpoch*1000, "ms/epoch")
	}
	perItem(b.N*epochs*len(exs), "example")
	b.ReportMetric(float64(len(exs)), "examples")
}

// benchTrainCorpus builds the training examples once: the pipeline's
// front half (core.TrainExamples).
func benchTrainCorpus(b *testing.B) (task core.Task, numFeatures int, exs []model.Example) {
	elec := synth.Electronics(42, 32)
	task = elec.Tasks[0]
	numFeatures, exs = core.TrainExamples(task, elec.Docs, core.Options{})
	if len(exs) == 0 {
		b.Fatal("bench corpus produced no covered examples")
	}
	return task, numFeatures, exs
}

// startPerItem starts the measured part of a benchmark whose op is a
// whole sweep (so that -benchtime 1x still times real work) and
// returns the function that ends it, reporting elapsed time and
// allocated objects per item of the sweep beside ns/op and allocs/op.
func startPerItem(b *testing.B) func(items int, unit string) {
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	return func(items int, unit string) {
		b.StopTimer()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(items), "us/"+unit)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(items), "allocs/"+unit)
	}
}

// BenchmarkClassify is the classify layer: one op scores every
// candidate of the bench corpus once with a trained model.
// per-document is what classifyStage, delta classification, AdoptModel
// and POST /classify run: the candidates cut into runs of one document,
// one Model.PredictProbs call per run, each distinct mention context
// encoded once (seqs/candidate counts the encoder runs). per-candidate
// is Model.PredictProb, which encodes every mention of every candidate.
func BenchmarkClassify(b *testing.B) {
	task, numFeatures, exs := benchTrainCorpus(b)
	m := model.NewFonduer(len(task.Args), numFeatures, 1, exs)
	m.Train(exs, model.TrainOptions{Epochs: 1})
	b.Run("per-document", func(b *testing.B) {
		starts := []int{0}
		for i := 1; i < len(exs); i++ {
			if exs[i].Cand.Doc() != exs[i-1].Cand.Doc() {
				starts = append(starts, i)
			}
		}
		starts = append(starts, len(exs))
		probs := make([]float64, len(exs))
		sum, encoded := 0.0, 0
		perItem := startPerItem(b)
		for i := 0; i < b.N; i++ {
			for k := 1; k < len(starts); k++ {
				encoded += m.PredictProbs(exs[starts[k-1]:starts[k]], probs[starts[k-1]:starts[k]])
			}
			for _, p := range probs {
				sum += p
			}
		}
		perItem(b.N*len(exs), "candidate")
		b.ReportMetric(float64(encoded)/float64(b.N*len(exs)), "seqs/candidate")
		b.ReportMetric(sum/float64(b.N*len(exs)), "mean_marginal")
	})
	b.Run("per-candidate", func(b *testing.B) {
		sum := 0.0
		perItem := startPerItem(b)
		for i := 0; i < b.N; i++ {
			for _, ex := range exs {
				sum += m.PredictProb(ex)
			}
		}
		perItem(b.N*len(exs), "candidate")
		b.ReportMetric(sum/float64(b.N*len(exs)), "mean_marginal")
	})
}

// BenchmarkServeIngestPublish measures the serving subsystem's
// ingest-to-publish latency: a POST /ingest-sized delta (two documents)
// landing on a warm 14-document session — incremental
// extract/featurize/label, delta capture, epoch publication — until the
// new view is readable. The delta epoch classifies only the new
// documents under the serving generation's model; no training is on
// the path.
func BenchmarkServeIngestPublish(b *testing.B) {
	elec := synth.Electronics(8, 16)
	warm := len(elec.Docs) - 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rg, srv := benchTenant(b, elec)
		if _, err := srv.Ingest(elec.Docs[:warm]); err != nil {
			b.Fatal(err)
		}
		// Train a real generation so a delta classifies under warm,
		// representative weights — the steady state the write path
		// serves from.
		if _, err := srv.Train(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		view, err := srv.Ingest(elec.Docs[warm:])
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if view.NumDocs() != len(elec.Docs) {
			b.Fatalf("published view has %d docs, want %d", view.NumDocs(), len(elec.Docs))
		}
		rg.Close()
		b.StartTimer()
	}
}

// The four benchmarks below are the layers of one ingest-to-publish
// that are bookkeeping rather than extraction or classification: the
// kbase insert path, the store's per-document mirror, the label-model
// fit, and the delta view.

// BenchmarkTableInsert is the kbase insert path on each engine, through
// each of its entry points: one op builds a fresh 20 000-row table shaped
// like the features relation (candidate id, sequence number, feature
// name) in 500-row batches — a tuple at a time through Insert, a []Tuple
// through InsertAll, or a typed Batch built from the unboxed values
// through InsertBatch — then offers every row again: the
// rejected-duplicate path.
func BenchmarkTableInsert(b *testing.B) {
	const nRows, batch = 20000, 500
	schema, err := kbase.NewSchema("features", "cand:integer", "seq:integer", "name")
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 977)
	for i := range names {
		names[i] = fmt.Sprintf("TAB_e1_HEAD_WORD_[collector-%d]", i)
	}
	rows := make([]kbase.Tuple, nRows)
	for i := range rows {
		rows[i] = kbase.Tuple{int64(i / 40), int64(i % 40), names[i%len(names)]}
	}
	paths := []struct {
		name   string
		insert func(tbl *kbase.Table, lo int) error
	}{
		{"Insert", func(tbl *kbase.Table, lo int) error {
			for _, tp := range rows[lo : lo+batch] {
				if _, err := tbl.Insert(tp); err != nil {
					return err
				}
			}
			return nil
		}},
		{"InsertAll", func(tbl *kbase.Table, lo int) error {
			_, err := tbl.InsertAll(rows[lo : lo+batch])
			return err
		}},
		{"InsertBatch", func(tbl *kbase.Table, lo int) error {
			bt := kbase.NewBatch(schema, batch)
			for i := lo; i < lo+batch; i++ {
				bt.AppendInt(0, int64(i/40))
				bt.AppendInt(1, int64(i%40))
				bt.AppendString(2, names[i%len(names)])
			}
			_, err := tbl.InsertBatch(bt)
			return err
		}},
	}
	for _, kind := range kbase.BackendKinds() {
		for _, path := range paths {
			b.Run(kind+"/"+path.name, func(b *testing.B) {
				perItem := startPerItem(b)
				for i := 0; i < b.N; i++ {
					engine, err := kbase.NewEngine(kind, filepath.Join(b.TempDir(), fmt.Sprint(i)))
					if err != nil {
						b.Fatal(err)
					}
					db := kbase.NewDBWith(engine)
					tbl, err := db.Create(schema)
					if err != nil {
						b.Fatal(err)
					}
					for pass := 0; pass < 2; pass++ {
						for lo := 0; lo < nRows; lo += batch {
							if err := path.insert(tbl, lo); err != nil {
								b.Fatal(err)
							}
						}
					}
					if tbl.Len() != nRows {
						b.Fatalf("table holds %d rows, want %d", tbl.Len(), nRows)
					}
					db.Close()
				}
				perItem(b.N*2*nRows, "row")
			})
		}
	}
}

// BenchmarkSnapshot is the snapshot's own layer: Store.Snapshot of a
// 120-document electronics session, every relation streamed from the
// store into its TSV file a bounded batch at a time. B/op is what a
// snapshot allocates beside the session; it does not grow with the
// session.
func BenchmarkSnapshot(b *testing.B) {
	elec := synth.Electronics(1, 120)
	st := core.NewStore(elec.Tasks[0], core.Options{})
	if err := st.AddDocuments(elec.Docs...); err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "snap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Snapshot(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelFit is what a publish pays for supervision: the
// label-model fit plus the marginals over the vote rows of the first
// electronics task's candidates in a 48-document corpus (570
// candidates, reported as the candidates metric).
func BenchmarkLabelFit(b *testing.B) {
	elec := synth.Electronics(8, 48)
	task := elec.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: DocumentScope, Throttlers: task.Throttlers}
	cands := ext.ExtractAll(elec.Docs)
	for i, c := range cands {
		c.ID = i
	}
	votes := labeling.ParallelVotes(task.LFs, cands, 0)
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	m := &labeling.Matrix{Votes: votes, NumLFs: len(task.LFs)}
	for i := 0; i < b.N; i++ {
		gen := labeling.Fit(m, labeling.FitOptions{})
		if got := gen.Marginals(m); len(got) != len(cands) {
			b.Fatalf("%d marginals for %d candidates", len(got), len(cands))
		}
		iters = gen.Iterations
	}
	b.ReportMetric(float64(len(cands)), "candidates")
	b.ReportMetric(float64(iters), "em_iterations")
}

// BenchmarkViewDelta is Store.ViewDelta for a two-document delta on a
// 46-document session with a trained generation: everything a delta
// publish does after AddDocuments.
func BenchmarkViewDelta(b *testing.B) {
	elec := synth.Electronics(8, 48)
	task := elec.Tasks[0]
	st := core.NewStore(task, core.Options{Seed: 1, Epochs: 1})
	defer st.Close()
	warm := len(elec.Docs) - 2
	if err := st.AddDocuments(elec.Docs[:warm]...); err != nil {
		b.Fatal(err)
	}
	prev, err := st.View(nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AddDocuments(elec.Docs[warm:]...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := st.ViewDelta(prev, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v.NumDocs() != len(elec.Docs) {
			b.Fatalf("delta view has %d docs, want %d", v.NumDocs(), len(elec.Docs))
		}
	}
}
