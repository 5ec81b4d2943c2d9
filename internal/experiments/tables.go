package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kbase"
	"repro/internal/oracle"
	"repro/internal/pool"
	"repro/internal/synth"
)

// Table2Row is one dataset's row of Table 2: the upper bounds of the
// Text/Table/Ensemble oracles against Fonduer's end-to-end quality.
type Table2Row struct {
	Dataset  string
	Text     core.PRF
	Table    core.PRF
	Ensemble core.PRF
	Fonduer  core.PRF
}

// Table2Result reproduces Table 2 for all four datasets.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 runs the oracle comparison (Section 5.2.1). Oracles are
// evaluated on the test split, like Fonduer. All (domain, task)
// pipeline runs fan out over one flat worker pool; the cheap oracle
// evaluations run inline.
func Table2(cfg Config) Table2Result {
	domains := Domains(cfg)
	corpora := make([]*synth.Corpus, len(domains))
	for di, d := range domains {
		corpora[di] = d.Corpus
	}
	quality := perTaskQuality(corpora, cfg, core.Options{})
	rows := make([]Table2Row, len(domains))
	for di, d := range domains {
		row := Table2Row{Dataset: d.Name}
		_, test := d.Corpus.Split()
		// Oracle upper bounds, averaged over the domain's tasks.
		var tx, tb, en core.PRF
		for _, task := range d.Corpus.Tasks {
			gold := d.Corpus.GoldTuples[task.Relation]
			tx = addPRF(tx, oracle.Evaluate(oracle.Text, task, test, gold))
			tb = addPRF(tb, oracle.Evaluate(oracle.Table, task, test, gold))
			en = addPRF(en, oracle.Evaluate(oracle.Ensemble, task, test, gold))
		}
		n := float64(len(d.Corpus.Tasks))
		row.Text = scalePRF(tx, 1/n)
		row.Table = scalePRF(tb, 1/n)
		row.Ensemble = scalePRF(en, 1/n)
		row.Fonduer = meanPRF(quality[di])
		rows[di] = row
	}
	return Table2Result{Rows: rows}
}

func addPRF(a, b core.PRF) core.PRF {
	return core.PRF{Precision: a.Precision + b.Precision, Recall: a.Recall + b.Recall, F1: a.F1 + b.F1}
}

func scalePRF(a core.PRF, s float64) core.PRF {
	return core.PRF{Precision: a.Precision * s, Recall: a.Recall * s, F1: a.F1 * s}
}

// String renders the Table 2 layout.
func (r Table2Result) String() string {
	t := &table{header: []string{"Sys.", "Metric", "Text", "Table", "Ensemble", "Fonduer"}}
	for _, row := range r.Rows {
		t.add(row.Dataset, "Prec.", f2(row.Text.Precision), f2(row.Table.Precision), f2(row.Ensemble.Precision), f2(row.Fonduer.Precision))
		t.add("", "Rec.", f2(row.Text.Recall), f2(row.Table.Recall), f2(row.Ensemble.Recall), f2(row.Fonduer.Recall))
		t.add("", "F1", f2(row.Text.F1), f2(row.Table.F1), f2(row.Ensemble.F1), f2(row.Fonduer.F1))
	}
	return "Table 2: end-to-end quality vs. oracle upper bounds\n" + t.String()
}

// Table3Row is one existing-KB comparison (Section 5.2.2).
type Table3Row struct {
	Dataset        string
	KBName         string
	EntriesKB      int
	EntriesFonduer int
	Coverage       float64
	Accuracy       float64
	NewCorrect     int
	Increase       float64
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 compares Fonduer's output KB against simulated existing
// knowledge bases for ELECTRONICS and GENOMICS. Each existing KB is a
// deterministic subsample of the corpus-level gold KB (existing KBs
// have coverage gaps — the paper's Digi-Key covers manually curated
// entries only).
func Table3(cfg Config) Table3Result {
	var out Table3Result
	domains := []struct {
		name    string
		corpus  *synth.Corpus
		kbNames []string
		keep    []float64 // fraction of gold present in the existing KB
	}{
		{"ELEC.", synth.Electronics(cfg.Seed, cfg.ElecDocs), []string{"Digi-Key (sim)"}, []float64{0.85}},
		{"GEN.", synth.Genomics(cfg.Seed+3, cfg.GenDocs), []string{"GWAS Central (sim)", "GWAS Catalog (sim)"}, []float64{0.45, 0.60}},
	}
	perDomain := make([][]Table3Row, len(domains))
	pool.Run(len(domains), cfg.Workers, func(di int) {
		d := domains[di]
		task := d.corpus.Tasks[0]
		train, _ := d.corpus.Split()
		// Production mode: finalized LFs, classify the whole corpus.
		res := core.Run(task, train, d.corpus.Docs, d.corpus.GoldTuples[task.Relation], cfg.options(core.Options{}))
		// Corpus-level predicted KB (drop document scoping).
		predKB := kbase.NewTable(task.Schema)
		for _, t := range res.Predicted {
			tup := make(kbase.Tuple, len(t.Values))
			for i, v := range t.Values {
				tup[i] = v
			}
			if _, err := predKB.Insert(tup); err != nil {
				panic("experiments: " + err.Error())
			}
		}
		goldKB := corpusGoldKB(task.Schema, d.corpus.GoldTuples[task.Relation])
		for i, kbName := range d.kbNames {
			existing := subsampleKB(task.Schema, goldKB, d.keep[i], cfg.Seed+int64(i))
			cmp := kbase.Compare(predKB, existing)
			correct := 0
			newCorrect := 0
			predKB.Scan(func(tp kbase.Tuple) bool {
				if goldKB.Contains(tp) {
					correct++
					if !existing.Contains(tp) {
						newCorrect++
					}
				}
				return true
			})
			acc := 0.0
			if predKB.Len() > 0 {
				acc = float64(correct) / float64(predKB.Len())
			}
			inc := 0.0
			if existing.Len() > 0 {
				inc = float64(correct) / float64(existing.Len())
			}
			perDomain[di] = append(perDomain[di], Table3Row{
				Dataset: d.name, KBName: kbName,
				EntriesKB: existing.Len(), EntriesFonduer: predKB.Len(),
				Coverage: cmp.Coverage, Accuracy: acc,
				NewCorrect: newCorrect, Increase: inc,
			})
		}
	})
	for _, rows := range perDomain {
		out.Rows = append(out.Rows, rows...)
	}
	return out
}

func corpusGoldKB(schema kbase.Schema, gold []core.GoldTuple) *kbase.Table {
	t := kbase.NewTable(schema)
	for _, g := range gold {
		tup := make(kbase.Tuple, len(g.Values))
		for i, v := range g.Values {
			tup[i] = v
		}
		if _, err := t.Insert(tup); err != nil {
			panic("experiments: " + err.Error())
		}
	}
	return t
}

func subsampleKB(schema kbase.Schema, gold *kbase.Table, keep float64, seed int64) *kbase.Table {
	rng := rand.New(rand.NewSource(seed))
	out := kbase.NewTable(schema)
	gold.Scan(func(tp kbase.Tuple) bool {
		if rng.Float64() < keep {
			if _, err := out.Insert(tp); err != nil {
				panic("experiments: " + err.Error())
			}
		}
		return true
	})
	return out
}

// String renders the Table 3 layout.
func (r Table3Result) String() string {
	t := &table{header: []string{"System", "Knowledge Base", "#KB", "#Fonduer", "Coverage", "Accuracy", "#NewCorrect", "Increase"}}
	for _, row := range r.Rows {
		t.add(row.Dataset, row.KBName, fmt.Sprint(row.EntriesKB), fmt.Sprint(row.EntriesFonduer),
			f2(row.Coverage), f2(row.Accuracy), fmt.Sprint(row.NewCorrect), fmt.Sprintf("%.2fx", row.Increase))
	}
	return "Table 3: end-to-end quality vs. existing knowledge bases\n" + t.String()
}

// Table4Row compares featurization approaches on one dataset.
type Table4Row struct {
	Dataset    string
	HumanTuned core.PRF
	BiLSTM     core.PRF
	Fonduer    core.PRF
}

// Table4Result reproduces Table 4.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs the featurization study (Section 5.3.3): a human-tuned
// multimodal feature model, a text-only Bi-LSTM with attention, and
// Fonduer's combined model, on each dataset's first task. All twelve
// (domain, variant) configurations fan out over the worker pool.
func Table4(cfg Config) Table4Result {
	domains := Domains(cfg)
	variants := []core.Variant{core.VariantHumanTuned, core.VariantTextLSTM, core.VariantFonduer}
	// Extract each domain's candidates once; the variant grid reuses
	// them (extraction is variant-independent).
	ex := make([]extracted, len(domains))
	pool.Run(len(domains), cfg.Workers, func(di int) { ex[di] = extractTask(domains[di].Corpus, 0) })
	quality := runGrid(len(domains), len(variants), cfg.Workers, func(di, vi int) core.PRF {
		return ex[di].run(cfg, core.Options{Variant: variants[vi]}).Quality
	})
	var out Table4Result
	for di, d := range domains {
		out.Rows = append(out.Rows, Table4Row{
			Dataset:    d.Name,
			HumanTuned: quality[di][0],
			BiLSTM:     quality[di][1],
			Fonduer:    quality[di][2],
		})
	}
	return out
}

// String renders the Table 4 layout.
func (r Table4Result) String() string {
	t := &table{header: []string{"Sys.", "Metric", "Human-tuned", "Bi-LSTM w/ Attn.", "Fonduer"}}
	for _, row := range r.Rows {
		t.add(row.Dataset, "Prec.", f2(row.HumanTuned.Precision), f2(row.BiLSTM.Precision), f2(row.Fonduer.Precision))
		t.add("", "Rec.", f2(row.HumanTuned.Recall), f2(row.BiLSTM.Recall), f2(row.Fonduer.Recall))
		t.add("", "F1", f2(row.HumanTuned.F1), f2(row.BiLSTM.F1), f2(row.Fonduer.F1))
	}
	return "Table 4: featurization approaches\n" + t.String()
}

// Table5Result reproduces Table 5: SRV's HTML-feature learner vs
// Fonduer on ADVERTISEMENTS (the only HTML-input dataset).
type Table5Result struct {
	SRV     core.PRF
	Fonduer core.PRF
}

// Table5 runs the SRV comparison; the two feature models fan out.
func Table5(cfg Config) Table5Result {
	ads := synth.Ads(cfg.Seed+1, cfg.AdsDocs)
	ex := extractTask(ads, 0)
	variants := []core.Variant{core.VariantSRV, core.VariantFonduer}
	quality := make([]core.PRF, len(variants))
	pool.Run(len(variants), cfg.Workers, func(i int) {
		quality[i] = ex.run(cfg, core.Options{Variant: variants[i]}).Quality
	})
	return Table5Result{SRV: quality[0], Fonduer: quality[1]}
}

// String renders the Table 5 layout.
func (r Table5Result) String() string {
	t := &table{header: []string{"Feature Model", "Precision", "Recall", "F1"}}
	t.add("SRV", f2(r.SRV.Precision), f2(r.SRV.Recall), f2(r.SRV.F1))
	t.add("Fonduer", f2(r.Fonduer.Precision), f2(r.Fonduer.Recall), f2(r.Fonduer.F1))
	return "Table 5: SRV vs Fonduer features (ADS)\n" + t.String()
}

// Table6Result reproduces Table 6: the document-level RNN against
// Fonduer's last-layer feature combination, on one ELEC relation.
type Table6Result struct {
	DocRNNSecsPerEpoch  float64
	DocRNNF1            float64
	FonduerSecsPerEpoch float64
	FonduerF1           float64
}

// Table6 runs the learning-model comparison.
func Table6(cfg Config) Table6Result {
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	ex := extractTask(elec, 0)
	doc := ex.run(cfg, core.Options{Variant: core.VariantDocRNN})
	fon := ex.run(cfg, core.Options{Variant: core.VariantFonduer})
	return Table6Result{
		DocRNNSecsPerEpoch:  doc.TrainStats.SecsPerEpoch,
		DocRNNF1:            doc.Quality.F1,
		FonduerSecsPerEpoch: fon.TrainStats.SecsPerEpoch,
		FonduerF1:           fon.Quality.F1,
	}
}

// String renders the Table 6 layout.
func (r Table6Result) String() string {
	t := &table{header: []string{"Learning Model", "Runtime (secs/epoch)", "Quality (F1)"}}
	t.add("Document-level RNN", fmt.Sprintf("%.3f", r.DocRNNSecsPerEpoch), f2(r.DocRNNF1))
	t.add("Fonduer", fmt.Sprintf("%.3f", r.FonduerSecsPerEpoch), f2(r.FonduerF1))
	slow := "n/a"
	if r.FonduerSecsPerEpoch > 0 {
		slow = fmt.Sprintf("%.1fx", r.DocRNNSecsPerEpoch/r.FonduerSecsPerEpoch)
	}
	return "Table 6: document-level RNN vs Fonduer (ELEC, 1 relation)\n" + t.String() +
		fmt.Sprintf("Doc-RNN slowdown: %s\n", slow)
}
