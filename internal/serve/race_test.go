package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/synth"
)

// reparse rebuilds the corpus documents from their serialized
// sources — exactly what the server's ingest path does — so the
// from-scratch baselines below run over byte-identical inputs.
func reparse(t *testing.T, c *synth.Corpus) []*datamodel.Document {
	t.Helper()
	out := make([]*datamodel.Document, len(c.Docs))
	for i, d := range c.Docs {
		src := c.Sources[i]
		if h := src["html"]; h != "" {
			doc := parser.ParseHTML(d.Name, h)
			if vs := src["vdoc"]; vs != "" {
				v, err := parser.ParseVDoc(vs)
				if err != nil {
					t.Fatal(err)
				}
				parser.AlignVisual(doc, v)
			}
			out[i] = doc
			continue
		}
		doc, err := parser.ParseXML(d.Name, src["xml"])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = doc
	}
	return out
}

// canonicalKB renders a /kb payload's columns+tuples as a canonical
// string for bit-identity comparison.
func canonicalKB(columns, tuples any) (string, error) {
	buf, err := json.Marshal(map[string]any{"columns": columns, "tuples": tuples})
	return string(buf), err
}

// fetchJSON is the goroutine-safe GET helper (t.Fatal must not be
// called off the test goroutine).
func fetchJSON(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	return out, nil
}

// postOK is the goroutine-safe POST helper: a status other than 200 is
// an error.
func postOK(url string, body any) (map[string]any, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("POST %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d (%v)", url, resp.StatusCode, out)
	}
	return out, nil
}

// fromScratch is the from-scratch reference for a server that ingested
// c's documents in batches of batch: the returned function gives the KB
// it must serve at epoch e under a generation trained at epoch at. A
// trained pair (at == e) is core.Run over the epoch's corpus prefix; a
// delta pair is a fresh store's View at epoch e re-served under the
// model of its View at epoch at (AdoptModel) — the canonical
// classification of that corpus under that generation.
func fromScratch(t *testing.T, c *synth.Corpus, task core.Task, gold []core.GoldTuple, opts core.Options, batch int) func(e, at uint64) string {
	t.Helper()
	docs := reparse(t, c)
	st := core.NewStore(task, opts)
	defer st.Close() // the views outlive their store
	// views[e] is the View over the first e batches.
	var views []*core.StoreView
	for e := 0; ; e++ {
		v, err := st.View(gold)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
		if e*batch >= len(docs) {
			break
		}
		if err := st.AddDocuments(reparse(t, c)[e*batch : (e+1)*batch]...); err != nil {
			t.Fatal(err)
		}
	}
	memo := map[[2]uint64]string{}
	return func(e, at uint64) string {
		key := [2]uint64{e, at}
		if kb, ok := memo[key]; ok {
			return kb
		}
		if e >= uint64(len(views)) || at > e {
			t.Fatalf("no reference for epoch %d under a generation trained at epoch %d", e, at)
		}
		var res core.Result
		if at == e {
			prefix := docs[:e*uint64(batch)]
			res = core.Run(task, prefix, prefix, gold, opts)
		} else {
			v, err := views[e].AdoptModel(views[at], gold)
			if err != nil {
				t.Fatal(err)
			}
			res = v.Result()
		}
		memo[key] = canonKB(task, res)
		return memo[key]
	}
}

func num(payload map[string]any, key string) (float64, error) {
	v, ok := payload[key].(float64)
	if !ok {
		return 0, fmt.Errorf("payload field %q missing or not a number: %v", key, payload)
	}
	return v, nil
}

// TestServeConcurrentEpochConsistency is the serving subsystem's
// flagship -race test: reader goroutines hammer every endpoint over
// real HTTP while one writer ingests document batches, each followed by
// a retrain. Every /kb response must be bit-identical to the from-scratch
// reference for its (epoch, generation) pair — core.Run over the
// epoch's corpus prefix once the generation trained on it, the delta
// epoch's canonical classification under the previous generation before
// — i.e. each reader observes exactly one published pair, never a
// half-applied ingest or install, and every /candidates response must
// report that epoch's exact candidate count.
func TestServeConcurrentEpochConsistency(t *testing.T) {
	const nDocs, batchSize, nReaders = 10, 2, 4
	corpus := synth.Electronics(43, nDocs)
	task := corpus.Tasks[0]
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 9, Epochs: 1, Workers: 2}
	docs := reparse(t, corpus)

	srv := newTenant(t, task, gold, serve.RegistryConfig{BaseOptions: opts}, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	numEpochs := nDocs/batchSize + 1 // initial empty epoch + one per batch

	// Reader goroutines: rotate across every endpoint, recording the
	// (epoch, payload) observations the validation phase checks.
	type kbObs struct {
		epoch, gen uint64
		kb         string
	}
	type candObs struct {
		epoch uint64
		total int
	}
	var (
		mu       sync.Mutex
		kbSeen   []kbObs
		candSeen []candObs
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	classifyBody, err := json.Marshal(uploadFor(corpus, 0))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch i % 6 {
				case 0:
					var resp map[string]any
					if resp, err = fetchJSON(ts.URL + "/kb"); err == nil {
						var e, g float64
						if e, err = num(resp, "epoch"); err == nil {
							if g, err = num(resp, "generation"); err == nil {
								var kb string
								if kb, err = canonicalKB(resp["columns"], resp["tuples"]); err == nil {
									mu.Lock()
									kbSeen = append(kbSeen, kbObs{epoch: uint64(e), gen: uint64(g), kb: kb})
									mu.Unlock()
								}
							}
						}
					}
				case 1:
					var resp map[string]any
					if resp, err = fetchJSON(ts.URL + "/candidates?limit=3"); err == nil {
						var e, total float64
						if e, err = num(resp, "epoch"); err == nil {
							if total, err = num(resp, "total"); err == nil {
								mu.Lock()
								candSeen = append(candSeen, candObs{epoch: uint64(e), total: int(total)})
								mu.Unlock()
							}
						}
					}
				case 2:
					var resp map[string]any
					if resp, err = fetchJSON(ts.URL + "/marginals"); err == nil {
						margs, _ := resp["marginals"].([]any)
						var total float64
						if total, err = num(resp, "total"); err == nil && len(margs) != int(total) {
							err = fmt.Errorf("marginals payload inconsistent: %v", resp)
						}
					}
				case 3:
					if _, err = fetchJSON(ts.URL + "/lfmetrics"); err == nil {
						_, err = fetchJSON(ts.URL + "/features")
					}
				case 4:
					if _, err = fetchJSON(ts.URL + "/meta"); err == nil {
						_, err = fetchJSON(ts.URL + "/healthz")
					}
				case 5:
					// Ad-hoc classification rides along with the reads;
					// it must never mutate served state.
					var resp *http.Response
					if resp, err = http.Post(ts.URL+"/classify", "application/json", strings.NewReader(string(classifyBody))); err == nil {
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("classify status %d", resp.StatusCode)
						}
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// The writer: ingest batch after batch over HTTP, each followed by a
	// retrain. Each ingest reply must name the next epoch; each retrain
	// reply names the epoch its generation trained at.
	trainedAt := map[uint64]uint64{0: 0}
	for b := 0; b*batchSize < nDocs; b++ {
		reply := postJSON(t, ts.URL+"/ingest", uploads(corpus, b*batchSize, (b+1)*batchSize), http.StatusOK)
		if got, want := epochOf(t, reply), uint64(b+1); got != want {
			t.Fatalf("batch %d published epoch %d, want %d", b, got, want)
		}
		trained := postJSON(t, ts.URL+"/admin/train", nil, http.StatusOK)
		trainedAt[uint64(trained["generation"].(float64))] = uint64(trained["modelTrainedAtEpoch"].(float64))
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// ---- Validation: recompute every observed pair's expected state
	// from scratch and hold each observation to it.
	expectKB := fromScratch(t, corpus, task, gold, opts, batchSize)
	expectCands := make([]int, numEpochs)
	for e := 0; e < numEpochs; e++ {
		prefix := docs[:e*batchSize]
		expectCands[e] = core.Run(task, prefix, prefix, gold, opts).TrainCandidates
	}

	pairsObserved := map[[2]uint64]bool{}
	for _, obs := range kbSeen {
		at, trained := trainedAt[obs.gen]
		if obs.epoch >= uint64(numEpochs) || !trained || at > obs.epoch {
			t.Fatalf("reader observed unpublished (epoch %d, generation %d)", obs.epoch, obs.gen)
		}
		pairsObserved[[2]uint64{obs.epoch, obs.gen}] = true
		if want := expectKB(obs.epoch, at); obs.kb != want {
			t.Fatalf("(epoch %d, generation %d trained at epoch %d): served KB is not bit-identical to the from-scratch reference\n got: %s\nwant: %s",
				obs.epoch, obs.gen, at, obs.kb, want)
		}
	}
	for _, obs := range candSeen {
		if obs.epoch >= uint64(numEpochs) {
			t.Fatalf("reader observed unpublished epoch %d", obs.epoch)
		}
		if obs.total != expectCands[obs.epoch] {
			t.Fatalf("epoch %d: served %d candidates, from-scratch Run has %d",
				obs.epoch, obs.total, expectCands[obs.epoch])
		}
	}
	if len(kbSeen) == 0 || len(candSeen) == 0 {
		t.Fatal("readers recorded no observations; test is vacuous")
	}
	if !strings.Contains(expectKB(uint64(numEpochs-1), uint64(numEpochs-1)), `"tuples":[[`) {
		t.Fatal("final reference KB is empty; test is vacuous")
	}
	t.Logf("validated %d /kb and %d /candidates observations across (epoch, generation) pairs %v",
		len(kbSeen), len(candSeen), pairsObserved)
}
