package fonduer

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation. Each benchmark regenerates its experiment
// at the fast configuration (use cmd/fonduer-bench for the full-size
// runs recorded in EXPERIMENTS.md) and reports the headline metric as
// a custom benchmark unit so `go test -bench=.` prints the reproduced
// numbers next to the timings.

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
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchCfg() experiments.Config { return experiments.FastConfig() }

// BenchmarkTable2_OracleComparison regenerates Table 2 (end-to-end
// quality vs Text/Table/Ensemble oracle upper bounds, four domains).
func BenchmarkTable2_OracleComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchCfg())
		b.ReportMetric(r.Rows[0].Fonduer.F1, "elec_fonduer_F1")
		b.ReportMetric(r.Rows[0].Ensemble.F1, "elec_ensemble_F1")
	}
}

// BenchmarkTable3_ExistingKBs regenerates Table 3 (coverage and
// accuracy against simulated existing knowledge bases).
func BenchmarkTable3_ExistingKBs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchCfg())
		b.ReportMetric(r.Rows[0].Coverage, "elec_coverage")
		b.ReportMetric(r.Rows[0].Accuracy, "elec_accuracy")
	}
}

// BenchmarkTable4_Featurization regenerates Table 4 (human-tuned vs
// text-only Bi-LSTM vs Fonduer).
func BenchmarkTable4_Featurization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(benchCfg())
		b.ReportMetric(r.Rows[0].Fonduer.F1, "elec_fonduer_F1")
		b.ReportMetric(r.Rows[0].BiLSTM.F1, "elec_bilstm_F1")
	}
}

// BenchmarkTable5_SRV regenerates Table 5 (SRV HTML features vs
// Fonduer on ADS).
func BenchmarkTable5_SRV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(benchCfg())
		b.ReportMetric(r.Fonduer.F1, "fonduer_F1")
		b.ReportMetric(r.SRV.F1, "srv_F1")
	}
}

// BenchmarkTable6_DocRNN regenerates Table 6 (document-level RNN vs
// Fonduer: runtime per epoch and F1).
func BenchmarkTable6_DocRNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table6(benchCfg())
		b.ReportMetric(r.DocRNNSecsPerEpoch/r.FonduerSecsPerEpoch, "docRNN_slowdown_x")
		b.ReportMetric(r.FonduerF1-r.DocRNNF1, "fonduer_F1_advantage")
	}
}

// BenchmarkFigure4_Throttling regenerates Figure 4 (quality and
// speedup vs candidate filter ratio).
func BenchmarkFigure4_Throttling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(benchCfg())
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.SpeedUp, "speedup_at_90pct")
		b.ReportMetric(last.Quality.F1, "F1_at_90pct")
	}
}

// BenchmarkFigure6_ContextScope regenerates Figure 6 (average F1 per
// context scope on ELECTRONICS).
func BenchmarkFigure6_ContextScope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(benchCfg())
		b.ReportMetric(r.F1[3], "document_F1")
		b.ReportMetric(r.F1[0], "sentence_F1")
	}
}

// BenchmarkFigure7_FeatureAblation regenerates Figure 7 (per-modality
// feature ablation).
func BenchmarkFigure7_FeatureAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(benchCfg())
		b.ReportMetric(r.Rows[0].All, "elec_all_F1")
		b.ReportMetric(r.Rows[0].NoTabular, "elec_no_tabular_F1")
	}
}

// BenchmarkFigure8_SupervisionAblation regenerates Figure 8 (textual
// vs metadata labeling functions).
func BenchmarkFigure8_SupervisionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(benchCfg())
		b.ReportMetric(r.Rows[0].All, "elec_all_F1")
		b.ReportMetric(r.Rows[0].OnlyTextual, "elec_textual_F1")
	}
}

// BenchmarkFigure9_UserStudy regenerates Figure 9 (manual annotation
// vs labeling functions over a simulated 30-minute session).
func BenchmarkFigure9_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(benchCfg())
		var avgManual, avgLF float64
		for _, p := range r.Points {
			avgManual += p.ManualF1
			avgLF += p.LFF1
		}
		n := float64(len(r.Points))
		b.ReportMetric(avgLF/n, "avg_LF_F1")
		b.ReportMetric(avgManual/n, "avg_manual_F1")
	}
}

// BenchmarkParallelPipelineSpeedup measures the staged-parallel
// pipeline (extraction + two-pass featurization + LF application)
// against its Workers=1 execution and reports the wall-clock speedup
// as a metric. On a multi-core host the speedup approaches
// min(GOMAXPROCS, cores); see EXPERIMENTS.md for recorded runs.
func BenchmarkParallelPipelineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SpeedupStudy(benchCfg())
		if !r.Identical {
			b.Fatal("parallel run diverged from sequential")
		}
		b.ReportMetric(r.SpeedUp, "parallel_speedup_x")
		b.ReportMetric(float64(r.Workers), "workers")
	}
}

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

// BenchmarkIngestPaged is BenchmarkIngestIncremental over each paged
// kbase kind: identical stage work, with every relation row sealed into
// binary column pages — spilled to files ("disk") or kept on the heap
// ("columnar") — instead of residing in a slice: the storage engine's
// ingest overhead in isolation.
func BenchmarkIngestPaged(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	for _, kind := range []string{"disk", "columnar"} {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := core.NewStore(task, core.Options{Backend: kind})
				for _, batch := range batches {
					if err := st.AddDocuments(batch...); err != nil {
						b.Fatal(err)
					}
				}
				st.Close()
			}
		})
	}
}

// BenchmarkIngestEvicting measures the larger-than-RAM configuration:
// disk-paged backend with a resident budget of 4 parsed documents
// (the 24-doc corpus is 6x that), so ingestion keeps evicting LRU
// documents, and a final labeling-function application forces a full
// rehydration sweep from the sentences/candidates relations — the
// eviction + rehydration round trip the equivalence tests prove
// bit-identical.
func BenchmarkIngestEvicting(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{Backend: "disk", MaxResidentDocs: 4})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
		}
		st.AddLF(task.LFs[0])
		stats := st.StorageStats()
		if stats.PeakResidentDocs > 4 {
			b.Fatalf("budget violated: %+v", stats)
		}
		b.ReportMetric(stats.PageCacheHitRate, "cache_hit_rate")
		st.Close()
	}
}

// BenchmarkServeKBRead / BenchmarkServeMixedRead establish the
// serving subsystem's read-throughput baseline: concurrent clients
// querying a populated store through the full HTTP handler stack
// (request routing, snapshot-view loading, tuple cloning, JSON
// encoding) without network overhead. ns/op is the per-query latency;
// queries/sec is reported as a custom metric.
func BenchmarkServeKBRead(b *testing.B) {
	benchServeRead(b, []string{"/kb"})
}

// BenchmarkServeMixedRead rotates through every read endpoint,
// approximating a mixed dashboard workload.
func BenchmarkServeMixedRead(b *testing.B) {
	benchServeRead(b, []string{"/kb", "/candidates?limit=10", "/marginals", "/lfmetrics", "/features", "/meta", "/healthz"})
}

func benchServeRead(b *testing.B, paths []string) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	srv, err := serve.New(serve.Config{
		Task:    task,
		Options: core.Options{Seed: 1, Epochs: 2},
		Gold:    elec.GoldTuples[task.Relation],
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Ingest(elec.Docs); err != nil {
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

// BenchmarkServeKBFilteredRead measures the serving layer's filtered
// KB read primitive — Table.PageWhere, the storage call behind
// /kb?col=value, on the zone-map scan plan — over a 32-page table of
// each paged kind, two ways. Clustered: one group value per page, so
// zone maps prune 31 pages and the read is one page's predicate column
// plus a 50-row window. Scattered: every page holds one row of each of
// 128 groups, so nothing prunes and the read is the predicate column of
// every page plus the 32 matching rows. (The exact per-column decode
// counts are TestColumnarInPagePruning's.)
func BenchmarkServeKBFilteredRead(b *testing.B) {
	for _, kind := range []string{"disk", "columnar"} {
		b.Run(kind+"/clustered", func(b *testing.B) { benchFilteredRead(b, kind, false) })
		b.Run(kind+"/scattered", func(b *testing.B) { benchFilteredRead(b, kind, true) })
	}
}

func benchFilteredRead(b *testing.B, kind string, scattered bool) {
	engine, err := kbase.NewEngine(kind, filepath.Join(b.TempDir(), "spill"))
	if err != nil {
		b.Fatal(err)
	}
	db := kbase.NewDBWith(engine)
	defer db.Close()
	schema, err := kbase.NewSchema("kb", "part", "grp", "n:integer")
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Create(schema)
	if err != nil {
		b.Fatal(err)
	}
	const rows, pageRows = 4096, 128 // 32 full pages of the default geometry
	limit, matches := 50, pageRows   // clustered: g007 is all of page 7
	if scattered {
		limit, matches = rows/pageRows, rows/pageRows // one g007 row per page
	}
	for i := 0; i < rows; i++ {
		grp := i / pageRows
		if scattered {
			grp = i % pageRows
		}
		if _, err := tbl.Insert(kbase.Tuple{fmt.Sprintf("p%05d", i), fmt.Sprintf("g%03d", grp), i}); err != nil {
			b.Fatal(err)
		}
	}
	tbl.SetAutoIndex(false) // the scan plan, not index lookups
	preds := []kbase.Pred{{Col: 1, Want: "g007"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, total := tbl.PageWhere(preds, 0, limit)
		if total != matches || len(page) != limit {
			b.Fatalf("PageWhere: %d rows, total %d, want %d of %d", len(page), total, limit, matches)
		}
	}
	if pruned := tbl.BackendStats().PagesSkipped > 0; pruned == scattered {
		b.Fatalf("zone maps pruned = %v on a table with scattered = %v", pruned, scattered)
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

// BenchmarkAblation_MaxPoolVsAttention compares attention against the
// max-pooling aggregation Section 2.2 motivates attention over.
func BenchmarkAblation_MaxPoolVsAttention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		elec := synth.Electronics(benchCfg().Seed, benchCfg().ElecDocs)
		train, test := elec.Split()
		task := elec.Tasks[0]
		gold := elec.GoldTuples[task.Relation]
		att := core.Run(task, train, test, gold, core.Options{
			Variant: core.VariantTextLSTM, Seed: 1, Epochs: benchCfg().Epochs})
		pool := core.Run(task, train, test, gold, core.Options{
			Variant: core.VariantMaxPool, Seed: 1, Epochs: benchCfg().Epochs})
		b.ReportMetric(att.Quality.F1, "attention_F1")
		b.ReportMetric(pool.Quality.F1, "maxpool_F1")
	}
}

// BenchmarkAblation_LabelModelVsMajorityVote compares the generative
// label model against unweighted majority voting (Appendix A.2).
func BenchmarkAblation_LabelModelVsMajorityVote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		elec := synth.Electronics(benchCfg().Seed, benchCfg().ElecDocs)
		train, test := elec.Split()
		task := elec.Tasks[0]
		gold := elec.GoldTuples[task.Relation]
		gen := core.Run(task, train, test, gold, core.Options{Seed: 1, Epochs: benchCfg().Epochs})
		mv := core.Run(task, train, test, gold, core.Options{
			Seed: 1, Epochs: benchCfg().Epochs, MajorityVote: true})
		b.ReportMetric(gen.Quality.F1, "generative_F1")
		b.ReportMetric(mv.Quality.F1, "majority_vote_F1")
	}
}

// BenchmarkTrainSequential / BenchmarkTrainParallel time deterministic
// data-parallel minibatch training (model.Train) at Workers=1 vs
// Workers=8 on the bench corpus's training examples. Both runs train
// the bit-identical model (gradients reduce in fixed example-index
// order); the contrast is pure wall clock.
func BenchmarkTrainSequential(b *testing.B) { benchTrain(b, 16, 1) }

// BenchmarkTrainParallel is the 8-worker counterpart.
func BenchmarkTrainParallel(b *testing.B) { benchTrain(b, 16, 8) }

// BenchmarkTrainBatch1 is the training layer as every server and the
// repository benchmark run it: one Adam step per example. Beside
// ns/op (two epochs, model construction included) it reports the cost
// of one example and — the kernel's contract — how many objects one
// example allocates: the whole run's count spread over its steps,
// which construction, encoding and the tape's warm-up account for.
func BenchmarkTrainBatch1(b *testing.B) { benchTrain(b, 1, 1) }

// benchTrainCorpus builds the training examples once: the staged
// pipeline up to (but excluding) the train stage, via the same
// experiments.TrainExamples helper the trainspeed study uses, so the
// benchmark and the study measure the same workload.
func benchTrainCorpus(b *testing.B) (task core.Task, numFeatures int, exs []model.Example) {
	elec := synth.Electronics(42, 32)
	task = elec.Tasks[0]
	numFeatures, exs = experiments.TrainExamples(task, elec.Docs, 0)
	if len(exs) == 0 {
		b.Fatal("bench corpus produced no covered examples")
	}
	return task, numFeatures, exs
}

func benchTrain(b *testing.B, batch, workers int) {
	task, numFeatures, exs := benchTrainCorpus(b)
	const epochs = 2
	perItem := startPerItem(b)
	for i := 0; i < b.N; i++ {
		m := model.NewFonduer(len(task.Args), numFeatures, 1, exs)
		st := m.Train(exs, model.TrainOptions{Epochs: epochs, Batch: batch, Workers: workers})
		b.ReportMetric(st.SecsPerEpoch*1000, "ms/epoch")
	}
	perItem(b.N*epochs*len(exs), "example")
	b.ReportMetric(float64(len(exs)), "examples")
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
// candidate of the bench corpus once with a trained model —
// Model.PredictProb, what classifyStage, delta classification,
// AdoptModel and POST /classify pay per candidate.
func BenchmarkClassify(b *testing.B) {
	task, numFeatures, exs := benchTrainCorpus(b)
	m := model.NewFonduer(len(task.Args), numFeatures, 1, exs)
	m.Train(exs, model.TrainOptions{Epochs: 1})
	sum := 0.0
	perItem := startPerItem(b)
	for i := 0; i < b.N; i++ {
		for _, ex := range exs {
			sum += m.PredictProb(ex)
		}
	}
	perItem(b.N*len(exs), "candidate")
	b.ReportMetric(sum/float64(b.N*len(exs)), "mean_marginal")
}

// BenchmarkServeIngestPublish and BenchmarkServeIngestPublishAsync
// measure the serving subsystem's ingest-to-publish latency under the
// two training policies: a POST /ingest-sized delta (two documents)
// landing on a warm 14-document session — incremental
// extract/featurize/label, delta capture, epoch publication — until the
// new view is readable. With the writer as trainer the op includes the
// cold retrain over the full corpus; with the background trainer the
// delta epoch classifies only the new documents under the serving
// generation's model.
func BenchmarkServeIngestPublish(b *testing.B) { benchIngestPublish(b, false) }

// BenchmarkServeIngestPublishAsync is the background-trainer policy.
func BenchmarkServeIngestPublishAsync(b *testing.B) { benchIngestPublish(b, true) }

func benchIngestPublish(b *testing.B, async bool) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	warm := len(elec.Docs) - 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := serve.New(serve.Config{
			Task:    task,
			Options: core.Options{Seed: 1, Epochs: 2, Batch: 16},
			Gold:    elec.GoldTuples[task.Relation],
			Async:   async,
		})
		if err != nil {
			b.Fatal(err)
		}
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
		srv.Close()
		b.StartTimer()
	}
}

// BenchmarkServeMetricsOverhead bounds the cost of HTTP
// instrumentation: two identical warm servers answer the same read
// mix — one wired to an obs.Metrics registry, one with Metrics nil,
// which serves the exact pre-instrumentation handler chain — and the
// relative latency difference is reported as overhead_pct. The
// instrumented hot path is one map lookup plus two atomic updates per
// request; the benchmark fails outright if it costs more than 5%.
// Chunked mins make the comparison robust at -benchtime=1x: each
// sample is the fastest of eight interleaved 100-request chunks, so
// GC pauses and scheduler noise fall out of both sides.
func BenchmarkServeMetricsOverhead(b *testing.B) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	build := func(m *obs.Metrics) http.Handler {
		srv, err := serve.New(serve.Config{
			Task:    task,
			Options: core.Options{Seed: 1, Epochs: 2},
			Gold:    elec.GoldTuples[task.Relation],
			Name:    "bench",
			Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		if _, err := srv.Ingest(elec.Docs); err != nil {
			b.Fatal(err)
		}
		return srv.Handler()
	}
	plain := build(nil)
	instr := build(obs.NewMetrics())

	paths := []string{"/kb", "/healthz", "/meta", "/candidates?limit=10"}
	const chunks, perChunk = 8, 100
	chunk := func(h http.Handler) time.Duration {
		t0 := time.Now()
		for i := 0; i < perChunk; i++ {
			path := paths[i%len(paths)]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d for %s", rec.Code, path)
			}
		}
		return time.Since(t0)
	}
	measure := func() (plainMin, instrMin time.Duration) {
		plainMin, instrMin = time.Hour, time.Hour
		for c := 0; c < chunks; c++ {
			if d := chunk(plain); d < plainMin {
				plainMin = d
			}
			if d := chunk(instr); d < instrMin {
				instrMin = d
			}
		}
		return plainMin, instrMin
	}
	measure() // warm-up: route tables, JSON encoder states, metric children

	b.ResetTimer()
	var plainNs, instrNs int64
	for i := 0; i < b.N; i++ {
		p, m := measure()
		plainNs += p.Nanoseconds()
		instrNs += m.Nanoseconds()
	}
	b.StopTimer()

	reqs := float64(b.N * perChunk)
	b.ReportMetric(float64(plainNs)/reqs, "plain_ns/req")
	b.ReportMetric(float64(instrNs)/reqs, "instr_ns/req")
	overhead := (float64(instrNs) - float64(plainNs)) / float64(plainNs) * 100
	b.ReportMetric(overhead, "overhead_pct")
	if overhead > 5 {
		b.Fatalf("instrumentation overhead %.2f%% exceeds the 5%% budget (plain %dns, instrumented %dns)",
			overhead, plainNs, instrNs)
	}
}

// The four benchmarks below are the layers of one ingest-to-publish
// that are bookkeeping rather than extraction or classification: the
// kbase insert path, the store's per-document mirror, the label-model
// fit, and the delta view.

// BenchmarkTableInsert is Table.InsertAll on each engine: one op builds
// a fresh 20 000-row table shaped like the features relation (candidate
// id, sequence number, feature name) in 500-row batches, then offers
// every row again — the rejected-duplicate path.
func BenchmarkTableInsert(b *testing.B) {
	const nRows, batch = 20000, 500
	schema, err := kbase.NewSchema("features", "cand:integer", "seq:integer", "name")
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]kbase.Tuple, nRows)
	for i := range rows {
		rows[i] = kbase.Tuple{int64(i / 40), int64(i % 40), fmt.Sprintf("TAB_e1_HEAD_WORD_[collector-%d]", i%977)}
	}
	for _, kind := range kbase.BackendKinds() {
		b.Run(kind, func(b *testing.B) {
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
						if _, err := tbl.InsertAll(rows[lo : lo+batch]); err != nil {
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

// BenchmarkMirrorDoc is the store's per-document mirror (every relation
// row of a new document into kbase). One op ingests the 24-document
// corpus into a fresh store; ns/op and allocs/op are the whole
// AddDocuments, and the mirror stage's own time — its span — is reported
// per document.
func BenchmarkMirrorDoc(b *testing.B) {
	elec, batches := ingestCorpus()
	task := elec.Tasks[0]
	mirrorMs := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(task, core.Options{})
		for _, batch := range batches {
			if err := st.AddDocuments(batch...); err != nil {
				b.Fatal(err)
			}
			for _, sp := range st.TakeIngestSpans() {
				if sp.Name == "mirror" {
					mirrorMs += sp.DurationMs
				}
			}
		}
	}
	b.ReportMetric(mirrorMs*1e3/float64(b.N*len(elec.Docs)), "mirror_us/doc")
}

// BenchmarkLabelFit is what a delta publish pays for supervision: the
// label-model fit plus the marginals over the electronics vote matrix at
// about 4 000 candidates (the corpus size the serve_ingest workload ends
// at).
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
	for i := 0; i < b.N; i++ {
		m := labeling.MatrixFromVotes(votes, len(task.LFs))
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
