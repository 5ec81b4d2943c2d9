package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/features"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// The experiment tests use FastConfig (small corpora, few epochs) and
// assert the *shapes* the paper reports, not absolute values.

// skipSlow gates the full-pipeline experiment tests (which dominate
// the suite's runtime) behind `go test` without -short; CI runs the
// short suite on every push and the full suite on a schedule.
func skipSlow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow full-pipeline experiment; run without -short")
	}
}

func TestTable2Shapes(t *testing.T) {
	skipSlow(t)
	r := Table2(FastConfig())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]Table2Row{}
	for _, row := range r.Rows {
		byName[row.Dataset] = row
	}
	elec := byName["ELEC."]
	if elec.Fonduer.F1 <= elec.Text.F1 || elec.Fonduer.F1 <= elec.Table.F1 {
		t.Fatalf("Fonduer must beat oracles in ELEC: %+v", elec)
	}
	gen := byName["GEN."]
	if gen.Text.F1 != 0 || gen.Table.F1 != 0 || gen.Ensemble.F1 != 0 {
		t.Fatalf("GEN oracles must be zero: %+v", gen)
	}
	if gen.Fonduer.F1 <= 0.3 {
		t.Fatalf("GEN Fonduer F1 = %v", gen.Fonduer.F1)
	}
	paleo := byName["PALEO."]
	if paleo.Text.F1 != 0 {
		t.Fatalf("PALEO text oracle must be zero: %+v", paleo)
	}
	if s := r.String(); !strings.Contains(s, "Fonduer") {
		t.Fatal("render")
	}
}

func TestTable3Shapes(t *testing.T) {
	skipSlow(t)
	r := Table3(FastConfig())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Coverage <= 0.5 {
			t.Errorf("%s coverage = %v, want high", row.KBName, row.Coverage)
		}
		if row.Accuracy <= 0.5 {
			t.Errorf("%s accuracy = %v, want high", row.KBName, row.Accuracy)
		}
		if row.NewCorrect <= 0 {
			t.Errorf("%s should find new correct entries", row.KBName)
		}
		if row.Increase <= 1.0 {
			t.Errorf("%s increase = %v, want > 1x", row.KBName, row.Increase)
		}
	}
	if s := r.String(); !strings.Contains(s, "Coverage") {
		t.Fatal("render")
	}
}

func TestTable4And5Shapes(t *testing.T) {
	skipSlow(t)
	cfg := FastConfig()
	r4 := Table4(cfg)
	if len(r4.Rows) != 4 {
		t.Fatalf("rows = %d", len(r4.Rows))
	}
	// Fonduer must not lose meaningfully to the text-only Bi-LSTM on
	// the cross-context domains. A small tolerance absorbs
	// optimization noise at the fast scale — the paper's own Table 4
	// shows Fonduer within a couple of F1 points of its baselines on
	// some domains (e.g. below Human-tuned on PALEO).
	const tol = 0.08
	for _, row := range r4.Rows {
		if row.Dataset == "ADS." {
			continue
		}
		if row.Fonduer.F1+tol < row.BiLSTM.F1 {
			t.Errorf("%s: Fonduer (%v) lost to Bi-LSTM (%v)", row.Dataset, row.Fonduer.F1, row.BiLSTM.F1)
		}
	}
	if s := r4.String(); !strings.Contains(s, "Human-tuned") {
		t.Fatal("render")
	}

	r5 := Table5(cfg)
	if r5.Fonduer.F1 < r5.SRV.F1 {
		t.Errorf("Fonduer (%v) should beat SRV (%v)", r5.Fonduer.F1, r5.SRV.F1)
	}
	if s := r5.String(); !strings.Contains(s, "SRV") {
		t.Fatal("render")
	}
}

func TestTable6Shapes(t *testing.T) {
	skipSlow(t)
	r := Table6(FastConfig())
	if r.DocRNNSecsPerEpoch <= r.FonduerSecsPerEpoch {
		t.Fatalf("doc RNN (%v s/epoch) must be slower than Fonduer (%v)",
			r.DocRNNSecsPerEpoch, r.FonduerSecsPerEpoch)
	}
	if r.FonduerF1 <= r.DocRNNF1 {
		t.Fatalf("Fonduer F1 (%v) must beat doc RNN (%v)", r.FonduerF1, r.DocRNNF1)
	}
	if s := r.String(); !strings.Contains(s, "slowdown") {
		t.Fatal("render")
	}
}

func TestFigure4Shapes(t *testing.T) {
	skipSlow(t)
	r := Figure4(FastConfig())
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Points[0].SpeedUp != 1 {
		t.Fatal("base speedup must be 1")
	}
	// Heaviest filtering must run faster than no filtering.
	last := r.Points[len(r.Points)-1]
	if last.SpeedUp <= 1 {
		t.Fatalf("90%% filtering speedup = %v", last.SpeedUp)
	}
	// Recall at the heaviest filtering must drop below the recall at
	// moderate filtering (quality is not monotone in throttling).
	if last.Quality.Recall >= r.Points[1].Quality.Recall {
		t.Fatalf("heavy filtering should hurt recall: %v vs %v",
			last.Quality.Recall, r.Points[1].Quality.Recall)
	}
	if s := r.String(); !strings.Contains(s, "speedup") {
		t.Fatal("render")
	}
}

func TestFigure6Shapes(t *testing.T) {
	skipSlow(t)
	r := Figure6(FastConfig())
	if len(r.F1) != 4 {
		t.Fatalf("scopes = %d", len(r.F1))
	}
	sent, tbl, page, doc := r.F1[0], r.F1[1], r.F1[2], r.F1[3]
	if doc <= sent || doc <= tbl {
		t.Fatalf("document scope (%v) must dominate sentence (%v) and table (%v)", doc, sent, tbl)
	}
	if page > doc+1e-9 {
		t.Fatalf("page (%v) cannot beat document (%v)", page, doc)
	}
	if s := r.String(); !strings.Contains(s, "document") {
		t.Fatal("render")
	}
}

func TestFigure7Shapes(t *testing.T) {
	skipSlow(t)
	r := Figure7(FastConfig())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.All <= 0 {
			t.Errorf("%s all-features F1 = %v", row.Dataset, row.All)
		}
	}
	if s := r.String(); !strings.Contains(s, "NoTabular") {
		t.Fatal("render")
	}
}

func TestFigure8Shapes(t *testing.T) {
	skipSlow(t)
	r := Figure8(FastConfig())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Metadata LFs beat textual-only LFs everywhere in the paper.
		if row.OnlyTextual > row.All+1e-9 && row.OnlyTextual > row.OnlyMetadata+1e-9 {
			t.Errorf("%s: textual-only (%v) should not dominate (all=%v metadata=%v)",
				row.Dataset, row.OnlyTextual, row.All, row.OnlyMetadata)
		}
	}
	if s := r.String(); !strings.Contains(s, "Only Metadata") {
		t.Fatal("render")
	}
}

func TestFigure9Shapes(t *testing.T) {
	skipSlow(t)
	r := Figure9(FastConfig())
	if len(r.Points) != 6 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// The paper reports averages over the session: manual 0.26 vs LF
	// 0.49. Assert the average ordering (individual checkpoints are
	// noisy at this scale).
	var avgManual, avgLF float64
	for _, p := range r.Points {
		avgManual += p.ManualF1
		avgLF += p.LFF1
	}
	if avgLF <= avgManual {
		t.Fatalf("LFs (avg %v) must beat manual labeling (avg %v)",
			avgLF/float64(len(r.Points)), avgManual/float64(len(r.Points)))
	}
	last := r.Points[len(r.Points)-1]
	if last.LFLabels <= last.ManualLabels {
		t.Fatalf("LFs must label more candidates: %d vs %d", last.LFLabels, last.ManualLabels)
	}
	total := 0.0
	for _, v := range r.ModalityRatio {
		total += v
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("modality ratios sum to %v", total)
	}
	if r.ModalityRatio[features.Tabular] < r.ModalityRatio[features.Structural] {
		t.Fatal("tabular should dominate the LF pool (Figure 9 right)")
	}
	if s := r.String(); !strings.Contains(s, "Manual F1") {
		t.Fatal("render")
	}
}

// TestCacheStudy asserts Appendix C.1's shape, cache speedup > 1 (each
// side timed as the median of interleaved runs), and its mechanism
// without a clock: the cache answers repeated mentions and changes no
// candidate's features.
func TestCacheStudy(t *testing.T) {
	skipSlow(t)
	cfg := FastConfig()
	r := CacheStudy(cfg)
	if r.Candidates == 0 {
		t.Fatal("no candidates")
	}
	if r.SpeedUp <= 1 {
		t.Fatalf("cache speedup = %v, want > 1", r.SpeedUp)
	}
	if r.CacheHitRate <= 0 {
		t.Fatalf("hit rate = %v", r.CacheHitRate)
	}
	if s := r.String(); !strings.Contains(s, "speedup") {
		t.Fatal("render")
	}

	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	task := elec.Tasks[0]
	cands := (&candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope}).ExtractAll(elec.Docs)
	cached, plain := features.NewExtractor(), features.NewExtractor()
	plain.UseCache = false
	for _, c := range cands {
		if got, want := cached.Featurize(c), plain.Featurize(c); !slices.Equal(got, want) {
			t.Fatalf("candidate %d: %d features with the cache, %d without", c.ID, len(got), len(want))
		}
	}
	if st := cached.Stats(); st.Hits == 0 {
		t.Fatalf("cache stats %+v: want hits", st)
	}
}

// TestSparseStudy asserts Appendix C.2's shape, COO updates and LIL row
// queries faster (each side timed as the median of interleaved runs),
// and its mechanism without a clock: an update of a filled LIL row
// moves the entries after the updated column, where a COO update
// appends one entry; a LIL row query reads the row, where a COO one
// reads the whole log.
func TestSparseStudy(t *testing.T) {
	const rows, cols, active, repeats = 800, 4000, 40, 50
	r := SparseStudy(rows, cols, active, repeats)
	if r.UpdateSpeedup <= 1 {
		t.Fatalf("COO update speedup = %v, want > 1", r.UpdateSpeedup)
	}
	if r.QuerySpeedup <= 1 {
		t.Fatalf("LIL query speedup = %v, want > 1", r.QuerySpeedup)
	}
	if s := r.String(); !strings.Contains(s, "faster") {
		t.Fatal("render")
	}

	// The study's fill, then its update pattern: one column of every
	// row, once per repeat.
	lil, writes := sparse.NewLIL(), 0
	for row := 0; row < rows; row++ {
		for k := 0; k < active; k++ {
			lil.Set(row, (row*31+k*977)%cols, 1)
			writes++
		}
	}
	moved, updates := 0, 0
	for rep := 0; rep < repeats; rep++ {
		for row := 0; row < rows; row++ {
			entries := lil.Row(row)
			at, found := slices.BinarySearchFunc(entries, rep%cols, func(e sparse.Entry, col int) int { return e.Col - col })
			if !found {
				moved += len(entries) - at
			}
			lil.Set(row, rep%cols, 1)
			updates++
		}
	}
	if moved <= updates {
		t.Fatalf("LIL updates moved %d entries over %d updates; a COO update writes one entry each", moved, updates)
	}
	// A COO row query scans every write of the fill at least.
	if rowLen := len(lil.Row(0)); rowLen >= writes {
		t.Fatalf("a LIL row query reads %d entries, a COO one scans %d", rowLen, writes)
	}
}

func TestTableRenderer(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("xxx", "y")
	s := tb.String()
	if !strings.Contains(s, "xxx") || !strings.Contains(s, "bb") {
		t.Fatalf("render = %q", s)
	}
}
