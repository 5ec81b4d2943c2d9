package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
)

// canonKB renders a result's KB exactly as /kb serves it — schema
// columns plus first-wins-deduplicated predicted value tuples — for
// bit-identity comparison against canonicalKB of a live response.
func canonKB(task core.Task, res core.Result) string {
	cols := make([]string, task.Schema.Arity())
	for i, c := range task.Schema.Columns {
		cols[i] = c.Name
	}
	rows := [][]string{}
	seen := map[string]bool{}
	for _, tp := range res.Predicted {
		key := strings.Join(tp.Values, "\x00")
		if !seen[key] {
			seen[key] = true
			rows = append(rows, tp.Values)
		}
	}
	kb, _ := canonicalKB(cols, rows) // strings only: cannot fail
	return kb
}

// TestServeAsyncReplayEquivalence is the two-phase publication
// acceptance test: every (epoch, generation) pair a reader ever
// observes over real HTTP must serve a KB bit-identical to a
// from-scratch replay of the same history — delta chains advanced epoch
// by epoch on a fresh store, each model generation a cold retrain at
// the epoch the train traces record, independent of the generation
// before it. Run under -race, with retrains deliberately overlapping
// delta ingests so the install path's AdoptModel catch-up is exercised,
// this proves the pair fully determines the served bytes.
func TestServeAsyncReplayEquivalence(t *testing.T) {
	const nDocs, batchSize, nReaders = 12, 2, 3
	corpus := synth.Electronics(43, nDocs)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 9, Epochs: 2, Workers: 2}
	docs := reparse(t, corpus)

	// Drift and interval are off: the test controls exactly when
	// generations advance, via Train — the same entry point the
	// background trainer and POST /admin/train use.
	srv := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts}, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type obsKB struct {
		epoch, gen uint64
		kb         string
	}
	var (
		mu   sync.Mutex
		seen []obsKB
	)
	observe := func() error {
		resp, err := fetchJSON(ts.URL + "/kb")
		if err != nil {
			return err
		}
		e, err := num(resp, "epoch")
		if err != nil {
			return err
		}
		g, err := num(resp, "generation")
		if err != nil {
			return err
		}
		kb, err := canonicalKB(resp["columns"], resp["tuples"])
		if err != nil {
			return err
		}
		mu.Lock()
		seen = append(seen, obsKB{epoch: uint64(e), gen: uint64(g), kb: kb})
		mu.Unlock()
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := observe(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	ingest := func(b int) {
		var batch []serve.DocumentUpload
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			batch = append(batch, uploadFor(corpus, i))
		}
		reply := postJSON(t, ts.URL+"/ingest", map[string]any{"documents": batch}, http.StatusOK)
		if got, want := epochOf(t, reply), uint64(b+1); got != want {
			t.Fatalf("batch %d published epoch %d, want %d", b, got, want)
		}
		if _, ok := reply["generation"]; !ok {
			t.Fatalf("ingest reply lacks generation: %v", reply)
		}
	}

	// Epochs 1-4 as pure delta publishes, then a retrain racing the
	// epoch-5 ingest (the install may need AdoptModel catch-up), then a
	// quiescent retrain through the HTTP route, then one more delta on
	// the new generation — guaranteeing observations where the served
	// epoch is ahead of the generation's training epoch.
	for b := 0; b < 4; b++ {
		ingest(b)
	}
	trainDone := make(chan error, 1)
	go func() {
		_, err := srv.Train()
		trainDone <- err
	}()
	ingest(4)
	if err := <-trainDone; err != nil {
		t.Fatalf("overlapped Train: %v", err)
	}
	trained := postJSON(t, ts.URL+"/admin/train", nil, http.StatusOK)
	if g, _ := trained["generation"].(float64); g < 2 {
		t.Fatalf("second retrain reply = %v, want generation >= 2", trained)
	}
	ingest(5)
	if err := observe(); err != nil { // pin a final (epoch 6, latest gen) observation
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// ---- The observed history: which generation trained at which
	// epoch, straight from the publication traces.
	trainedAt := map[uint64]uint64{}
	maxGen := uint64(0)
	for _, tr := range srv.Traces() {
		if tr.Kind == "train" && tr.Err == "" {
			trainedAt[tr.Generation] = tr.Epoch
			if tr.Generation > maxGen {
				maxGen = tr.Generation
			}
		}
	}
	if maxGen < 2 {
		t.Fatalf("only %d generations trained; traces = %+v", maxGen, srv.Traces())
	}

	// ---- Replay from scratch: a fresh store over the same batches,
	// one delta chain per generation. Generation g is a cold retrain of
	// the corpus at its recorded epoch: it is taken from generation 0's
	// chain, which shares that epoch's corpus and nothing else with the
	// view the server trained from.
	st := core.NewStore(task, opts)
	chains := map[uint64]*core.StoreView{}
	v0, err := st.View(gold)
	if err != nil {
		t.Fatal(err)
	}
	chains[0] = v0
	expected := map[[2]uint64]string{}
	record := func(e uint64) {
		for g, v := range chains {
			expected[[2]uint64{e, g}] = canonKB(task, v.Result())
		}
	}
	spawn := func(e uint64) {
		for g := uint64(1); g <= maxGen; g++ {
			if trainedAt[g] != e || chains[g] != nil {
				continue
			}
			nv, err := chains[0].Retrain(core.RetrainConfig{Gold: gold, Generation: g})
			if err != nil {
				t.Fatalf("replay retrain gen %d at epoch %d: %v", g, e, err)
			}
			chains[g] = nv
		}
	}
	spawn(0)
	record(0)
	for b := 0; b*batchSize < nDocs; b++ {
		if err := st.AddDocuments(docs[b*batchSize : (b+1)*batchSize]...); err != nil {
			t.Fatal(err)
		}
		e := uint64(b + 1)
		gens := make([]uint64, 0, len(chains))
		for g := range chains {
			gens = append(gens, g)
		}
		sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
		for _, g := range gens {
			nv, err := st.ViewDelta(chains[g], gold)
			if err != nil {
				t.Fatalf("replay delta gen %d epoch %d: %v", g, e, err)
			}
			chains[g] = nv
		}
		spawn(e)
		record(e)
	}

	// ---- Every observation must match its replayed (epoch,
	// generation) bit for bit.
	gensSeen := map[uint64]bool{}
	lagged := 0
	for _, o := range seen {
		want, ok := expected[[2]uint64{o.epoch, o.gen}]
		if !ok {
			t.Fatalf("reader observed (epoch %d, generation %d), which the replay never produced", o.epoch, o.gen)
		}
		if o.kb != want {
			t.Fatalf("(epoch %d, generation %d): served KB differs from replay\n got: %s\nwant: %s",
				o.epoch, o.gen, o.kb, want)
		}
		gensSeen[o.gen] = true
		if o.epoch > trainedAt[o.gen] {
			lagged++
		}
	}
	if len(gensSeen) < 2 {
		t.Fatalf("readers observed only generations %v; test is vacuous", gensSeen)
	}
	if lagged == 0 {
		t.Fatal("no observation had the served epoch ahead of its generation's training epoch; the delta path went unexercised")
	}
	if want := expected[[2]uint64{uint64(nDocs / batchSize), maxGen}]; !strings.Contains(want, `"tuples":[[`) {
		t.Fatal("final replayed KB is empty; test is vacuous")
	}
	t.Logf("validated %d observations across generations %v (%d ahead of their training epoch)", len(seen), gensSeen, lagged)
}

// TestServeAsyncGenerationsMatchView: when a generation trains is up to
// the trainer's callers, never what it is. A server ingests
// 2-document batches and is retrained at two points; each generation,
// caught up with the corpus, serves the KB, quality and final training
// loss of Store.View over a fresh store holding the same documents —
// not a function of the generation before it.
func TestServeAsyncGenerationsMatchView(t *testing.T) {
	corpus := synth.Electronics(44, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 9, Epochs: 2, Workers: 2}
	docs := reparse(t, corpus)

	srv := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts}, "")
	for b := 0; b < 4; b++ {
		if _, err := srv.Ingest(docs[2*b : 2*b+2]); err != nil {
			t.Fatal(err)
		}
		if b%2 == 0 {
			continue // a delta epoch under the serving generation
		}
		got, err := srv.Train()
		if err != nil {
			t.Fatal(err)
		}
		gen := uint64(b+1) / 2
		if got.Generation() != gen || got.Epoch() != got.ModelTrainedAtEpoch() {
			t.Fatalf("Train served (epoch %d, generation %d, trained at %d), want generation %d with no lag",
				got.Epoch(), got.Generation(), got.ModelTrainedAtEpoch(), gen)
		}
		fresh := core.NewStore(task, opts)
		defer fresh.Close()
		if err := fresh.AddDocuments(reparse(t, corpus)[:2*b+2]...); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.View(gold)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.KB().Tuples()) == 0 {
			t.Fatalf("generation %d: the fresh view extracts nothing; test is vacuous", gen)
		}
		if !reflect.DeepEqual(got.KB().Tuples(), want.KB().Tuples()) {
			t.Errorf("generation %d: KB differs from a fresh store's View", gen)
		}
		if g, w := got.Result().Quality, want.Result().Quality; g != w {
			t.Errorf("generation %d: quality %+v, fresh View %+v", gen, g, w)
		}
		if g, w := got.Result().TrainStats.FinalLoss, want.Result().TrainStats.FinalLoss; g != w {
			t.Errorf("generation %d: final loss %v, fresh View %v", gen, g, w)
		}
	}
}

// TestServeCaughtUpRestartServesSameKB: a tenant whose model has
// caught up with its corpus serves the same /kb bytes after Snapshot,
// Close, OpenStore and a new server over the resumed store — which
// trains its first view cold over the corpus, as every retrain does.
func TestServeCaughtUpRestartServesSameKB(t *testing.T) {
	for _, seed := range []int64{44, 45, 46} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			corpus := synth.Electronics(seed, 8)
			task := corpus.Tasks[0]
			opts := core.Options{Seed: 9, Epochs: 2, Workers: 2}
			dir := filepath.Join(t.TempDir(), "snap")
			srv := newTenant(t, task, nil, serve.RegistryConfig{BaseOptions: opts}, dir)
			ts := httptest.NewServer(srv.Handler())
			for b := 0; b < 4; b++ {
				postJSON(t, ts.URL+"/ingest", uploads(corpus, 2*b, 2*b+2), http.StatusOK)
				if b%2 == 1 {
					postJSON(t, ts.URL+"/admin/train", nil, http.StatusOK)
				}
			}
			if lag := getJSON(t, ts.URL+"/meta", http.StatusOK)["trainLagEpochs"]; lag != 0.0 {
				t.Fatalf("trainLagEpochs = %v after the last retrain, want 0", lag)
			}
			_, before := kbOf(t, ts.URL)
			postJSON(t, ts.URL+"/admin/snapshot", nil, http.StatusOK)
			ts.Close()
			srv.Close()

			resumed := newTenant(t, task, nil, serve.RegistryConfig{BaseOptions: opts}, dir)
			ts = httptest.NewServer(resumed.Handler())
			defer ts.Close()
			if _, after := kbOf(t, ts.URL); after != before || !strings.Contains(before, "[[") {
				t.Fatalf("/kb across the restart (or empty):\nbefore: %s\nafter:  %s", before, after)
			}
		})
	}
}

// TestServeTrainFailureKeepsDelta is the train-degraded surface test. The
// fault is a real one: explicit Options.Marginals sized for the first
// batch, so a retrain over a larger corpus indexes past them and panics
// on the trainer's goroutine. That must end neither the process nor the
// write path: the retrain is answered 500 and counted in
// fonduer_panics_total{where="trainer"}, the tenant reports the stuck
// generation, delta epochs keep publishing under it — without clearing
// the record — and the next retrain is a retry, not a refusal. (That a
// good retrain clears the record is TestContainRecords'.)
func TestServeTrainFailureKeepsDelta(t *testing.T) {
	corpus := synth.Electronics(77, 8)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 5, Epochs: 1, Workers: 2}

	sized := core.NewStore(task, opts)
	if err := sized.AddDocuments(reparse(t, corpus)[:3]...); err != nil {
		t.Fatal(err)
	}
	opts.Marginals = make([]float64, sized.NumCandidates())
	sized.Close()
	for i := range opts.Marginals {
		opts.Marginals[i] = 0.9
	}

	rg := newTenantRegistry(t, task, gold, serve.RegistryConfig{BaseOptions: opts}, "")
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	// The trainer works while the marginals cover the corpus.
	postJSON(t, ts.URL+"/ingest", uploads(corpus, 0, 3), http.StatusOK)
	if trained := postJSON(t, ts.URL+"/admin/train", nil, http.StatusOK); trained["generation"].(float64) != 1 {
		t.Fatalf("first retrain reply = %v", trained)
	}

	// ---- The corpus outgrows them: the next retrain panics.
	postJSON(t, ts.URL+"/ingest", uploads(corpus, 3, 6), http.StatusOK)
	fail := postJSON(t, ts.URL+"/admin/train", nil, http.StatusInternalServerError)
	if msg, _ := fail["error"].(string); !strings.Contains(msg, "panic on the trainer") {
		t.Fatalf("failed retrain reply = %v", fail)
	}
	stuck := func() {
		t.Helper()
		h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
		deg, _ := h["degraded"].(map[string]any)
		if h["ok"] != false || deg["where"] != "trainer" || !strings.Contains(deg["error"].(string), "index out of range") {
			t.Fatalf("train-degraded healthz = %v", h)
		}
	}
	stuck()

	// The write path is unaffected: a delta epoch publishes and serves
	// the new documents under the stuck generation — and does not clear
	// the record (a later delta must never mask a broken trainer).
	postJSON(t, ts.URL+"/ingest", uploads(corpus, 6, 8), http.StatusOK)
	kb := getJSON(t, ts.URL+"/kb", http.StatusOK)
	if epochOf(t, kb) != 3 || kb["generation"].(float64) != 1 {
		t.Fatalf("post-failure delta serves (epoch %v, generation %v), want (3, 1)", kb["epoch"], kb["generation"])
	}
	stuck()

	// A stuck generation is retried, not refused.
	postJSON(t, ts.URL+"/admin/train", nil, http.StatusInternalServerError)
	if want := `fonduer_panics_total{tenant="default",where="trainer"} 2`; !strings.Contains(getText(t, ts.URL+"/metrics"), want) {
		t.Fatalf("metrics lack %s", want)
	}
	meta := getJSON(t, ts.URL+"/meta", http.StatusOK)
	if meta["generation"].(float64) != 1 || meta["trainLagEpochs"].(float64) != 2 {
		t.Fatalf("/meta publication state = generation %v, lag %v", meta["generation"], meta["trainLagEpochs"])
	}
}

// TestServeBackgroundTrainTriggers covers the two autonomous retrain
// triggers: feature-space drift after a delta publish, and the
// staleness ticker. In both cases the generation must advance without
// any explicit Train call, and the staleness lag must return to zero.
func TestServeBackgroundTrainTriggers(t *testing.T) {
	corpus := synth.Electronics(59, 6)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 3, Epochs: 1, Workers: 2}

	waitGeneration := func(t *testing.T, srv *serve.Server, want uint64) *core.StoreView {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if v := srv.CurrentView(); v.Generation() >= want {
				return v
			}
			time.Sleep(10 * time.Millisecond)
		}
		v := srv.CurrentView()
		t.Fatalf("generation stuck at %d (epoch %d), want >= %d", v.Generation(), v.Epoch(), want)
		return nil
	}

	t.Run("drift", func(t *testing.T) {
		srv := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts, TrainDrift: 0.01}, "")
		if _, err := srv.Ingest(reparse(t, corpus)[:3]); err != nil {
			t.Fatal(err)
		}
		v := waitGeneration(t, srv, 1)
		if v.Epoch() != 1 || v.ModelTrainedAtEpoch() != 1 {
			t.Fatalf("drift-trained view at epoch %d, trainedAt %d", v.Epoch(), v.ModelTrainedAtEpoch())
		}
	})

	t.Run("interval", func(t *testing.T) {
		srv := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts, TrainInterval: 25 * time.Millisecond}, "")
		if _, err := srv.Ingest(reparse(t, corpus)[3:]); err != nil {
			t.Fatal(err)
		}
		v := waitGeneration(t, srv, 1)
		if v.Epoch() != 1 || v.ModelTrainedAtEpoch() != 1 {
			t.Fatalf("interval-trained view at epoch %d, trainedAt %d", v.Epoch(), v.ModelTrainedAtEpoch())
		}
	})
}

// TestServeTrainOverlappingIngest: Train is the one trainer, and its
// callers — the drift-kicked background trainer and concurrent POST
// /admin/train requests — overlap ingests. Each round starts two
// retrains just before an ingest, so their installs land behind its
// delta publish and catch up with it. Every (epoch, generation) pair any
// party observes — ingest results, retrain replies and a reader polling
// the served pointer — must agree on the KB, the run feature space and
// the model's training epoch, and the served model must never move to
// one trained at an earlier epoch.
func TestServeTrainOverlappingIngest(t *testing.T) {
	const rounds, perRound, trainers = 3, 2, 2
	corpus := synth.Electronics(47, (rounds+1)*perRound)
	task := corpus.Tasks[0]
	docs := reparse(t, corpus)

	srv := newTenant(t, task, nil, serve.RegistryConfig{BaseOptions: core.Options{Seed: 9, Epochs: 2, Workers: 2}, TrainDrift: 0.01}, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type content struct {
		kb          string
		runFeatures int
	}
	var (
		mu        sync.Mutex
		trainedAt = map[[2]uint64]uint64{}
		pairs     = map[[2]uint64]content{}
	)
	// agree files one observation of a pair; c is nil for a retrain
	// reply, which names the training epoch but not the bytes.
	agree := func(who string, pair [2]uint64, at uint64, c *content) {
		mu.Lock()
		defer mu.Unlock()
		if want, ok := trainedAt[pair]; ok && want != at {
			t.Errorf("%s: (epoch %d, generation %d) served a model trained at epoch %d, but also one trained at epoch %d",
				who, pair[0], pair[1], at, want)
		}
		trainedAt[pair] = at
		if c == nil {
			return
		}
		if want, ok := pairs[pair]; !ok {
			pairs[pair] = *c
		} else if *c != want {
			t.Errorf("%s: (epoch %d, generation %d) served with %d run features, but also with %d (same KB: %v)",
				who, pair[0], pair[1], c.runFeatures, want.runFeatures, c.kb == want.kb)
		}
	}
	observe := func(who string, v *core.StoreView) {
		agree(who, [2]uint64{v.Epoch(), v.Generation()}, v.ModelTrainedAtEpoch(),
			&content{canonKB(task, v.Result()), v.FeatureStats().RunFeatures})
	}
	train := func() error {
		reply, err := postOK(ts.URL+"/admin/train", nil)
		if err != nil {
			return err
		}
		pair := [2]uint64{uint64(reply["epoch"].(float64)), uint64(reply["generation"].(float64))}
		agree("POST /admin/train", pair, uint64(reply["modelTrainedAtEpoch"].(float64)), nil)
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last *core.StoreView
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := srv.CurrentView()
			if v == last {
				runtime.Gosched()
				continue
			}
			if last != nil && (v.ModelTrainedAtEpoch() < last.ModelTrainedAtEpoch() || v.Generation() < last.Generation()) {
				t.Errorf("served model went from generation %d trained at epoch %d to generation %d trained at epoch %d",
					last.Generation(), last.ModelTrainedAtEpoch(), v.Generation(), v.ModelTrainedAtEpoch())
			}
			observe("reader", v)
			last = v
		}
	}()

	if _, err := srv.Ingest(docs[:perRound]); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		// A retrain reads its base view within microseconds and then
		// trains for far longer than the ingest needs to reach the writer,
		// so the first install lands behind the ingest's publish; the
		// second retrain waits for the first on trainMu.
		trainDone := make(chan error, trainers)
		for i := 0; i < trainers; i++ {
			go func() { trainDone <- train() }()
		}
		v, err := srv.Ingest(docs[r*perRound : (r+1)*perRound])
		if err != nil {
			t.Fatal(err)
		}
		observe("Ingest", v)
		if v.Epoch() != uint64(r+1) {
			t.Fatalf("round %d: ingest published epoch %d", r, v.Epoch())
		}
		for i := 0; i < trainers; i++ {
			if err := <-trainDone; err != nil {
				t.Fatalf("round %d: overlapped retrain: %v", r, err)
			}
		}
	}
	if err := train(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	final := srv.CurrentView()
	observe("final", final)
	if final.Epoch() != rounds+1 || final.ModelTrainedAtEpoch() != final.Epoch() {
		t.Fatalf("final view at epoch %d serves a model trained at epoch %d", final.Epoch(), final.ModelTrainedAtEpoch())
	}
	if !strings.Contains(pairs[[2]uint64{final.Epoch(), final.Generation()}].kb, `"tuples":[[`) {
		t.Fatal("final KB is empty; test is vacuous")
	}
	caughtUp := 0
	for pair, at := range trainedAt {
		if at < pair[0] {
			caughtUp++
		}
	}
	t.Logf("%d (epoch, generation) pairs observed, %d served ahead of their training epoch", len(trainedAt), caughtUp)
}
