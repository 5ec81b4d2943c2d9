package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/synth"
)

// Figure4Point is one point of the throttling sweep.
type Figure4Point struct {
	FilterRatio float64 // fraction of candidates pruned
	Quality     core.PRF
	Seconds     float64
	SpeedUp     float64 // relative to FilterRatio = 0
}

// Figure4Result reproduces Figure 4: quality and speedup vs the
// fraction of candidates filtered by throttlers.
type Figure4Result struct {
	Points []Figure4Point
}

// Figure4 sweeps throttling strength on ELECTRONICS. Candidates that
// fail the task's throttlers are pruned first (accurate filtering of
// negatives); past that point pruning removes candidates blindly,
// which cuts into recall — the paper's non-monotone quality curve. Each
// point's time is the median of timingRuns interleaved runs.
func Figure4(cfg Config) Figure4Result {
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	task := elec.Tasks[0]
	train, test := elec.Split()
	gold := elec.GoldTuples[task.Relation]

	ext := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope}
	trainAll := ext.ExtractAll(train)
	ext.Reset()
	testAll := ext.ExtractAll(test)

	keepFiltered := func(cands []*candidates.Candidate, ratio float64, seed int64) []*candidates.Candidate {
		drop := int(ratio * float64(len(cands)))
		// Order: candidates failing a throttler first, then the rest;
		// shuffle within each class for tie-breaking.
		rng := rand.New(rand.NewSource(seed))
		var fail, pass []*candidates.Candidate
		for _, c := range cands {
			ok := true
			for _, t := range task.Throttlers {
				if !t(c) {
					ok = false
					break
				}
			}
			if ok {
				pass = append(pass, c)
			} else {
				fail = append(fail, c)
			}
		}
		rng.Shuffle(len(fail), func(i, j int) { fail[i], fail[j] = fail[j], fail[i] })
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		ordered := append(append([]*candidates.Candidate{}, fail...), pass...)
		kept := ordered[min(drop, len(ordered)):]
		// Restore deterministic order and densify IDs.
		candidates.SortByKey(kept)
		out := make([]*candidates.Candidate, len(kept))
		for i, c := range kept {
			cc := *c
			cc.ID = i
			out[i] = &cc
		}
		return out
	}

	ratios := []float64{0, 0.25, 0.5, 0.75, 0.9}
	out := Figure4Result{Points: make([]Figure4Point, len(ratios))}
	runs := make([]func() float64, len(ratios))
	for i, ratio := range ratios {
		tr := keepFiltered(trainAll, ratio, cfg.Seed+int64(ratio*100))
		te := keepFiltered(testAll, ratio, cfg.Seed+1000+int64(ratio*100))
		runs[i] = func() float64 {
			start := time.Now()
			res := core.RunWithCandidates(task, tr, te, test, gold, cfg.options(core.Options{NoThrottlers: true}))
			// Every run of a point is seeded alike and gives the same
			// result; only its time varies.
			out.Points[i] = Figure4Point{FilterRatio: ratio, Quality: res.Quality}
			return time.Since(start).Seconds()
		}
	}
	secs := interleavedMedians(runs...)
	for i := range out.Points {
		out.Points[i].Seconds = secs[i]
		if secs[i] > 0 {
			out.Points[i].SpeedUp = secs[0] / secs[i]
		}
	}
	out.Points[0].SpeedUp = 1
	return out
}

// String renders the Figure 4 series.
func (r Figure4Result) String() string {
	t := &table{header: []string{"% filtered", "Prec.", "Rec.", "F1", "secs", "speedup"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%.0f%%", 100*p.FilterRatio), f2(p.Quality.Precision),
			f2(p.Quality.Recall), f2(p.Quality.F1), fmt.Sprintf("%.2f", p.Seconds),
			fmt.Sprintf("%.1fx", p.SpeedUp))
	}
	return "Figure 4: throttling — quality and speedup vs filter ratio (ELEC)\n" + t.String()
}

// Figure6Result reproduces Figure 6: average F1 over the four
// ELECTRONICS relations at each context scope.
type Figure6Result struct {
	Scopes []candidates.Scope
	F1     []float64
}

// Figure6 runs the context-scope study; all (scope, task) pipeline
// runs fan out over one flat worker pool.
func Figure6(cfg Config) Figure6Result {
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	scopes := []candidates.Scope{
		candidates.SentenceScope, candidates.TableScope,
		candidates.PageScope, candidates.DocumentScope,
	}
	quality := runGrid(len(scopes), len(elec.Tasks), cfg.Workers, func(si, ti int) core.PRF {
		return runTask(elec, ti, cfg, core.Options{Scope: scopes[si]}).Quality
	})
	out := Figure6Result{Scopes: scopes, F1: make([]float64, len(scopes))}
	for si := range scopes {
		out.F1[si] = meanF1(quality[si])
	}
	return out
}

// String renders the Figure 6 series.
func (r Figure6Result) String() string {
	t := &table{header: []string{"Context scope", "Avg F1"}}
	for i, s := range r.Scopes {
		t.add(s.String(), f2(r.F1[i]))
	}
	return "Figure 6: average F1 vs context scope (ELEC, 4 relations)\n" + t.String()
}

// Figure7Row is one dataset's feature-ablation series.
type Figure7Row struct {
	Dataset      string
	All          float64
	NoTextual    float64
	NoStructural float64
	NoTabular    float64
	NoVisual     float64
}

// Figure7Result reproduces Figure 7.
type Figure7Result struct {
	Rows []Figure7Row
}

// Figure7 disables one feature modality at a time on each dataset's
// first task; all twenty (domain, ablation) configurations fan out.
func Figure7(cfg Config) Figure7Result {
	domains := Domains(cfg)
	ablations := [][]features.Modality{
		nil,
		{features.Textual},
		{features.Structural},
		{features.Tabular},
		{features.Visual},
	}
	f1 := runGrid(len(domains), len(ablations), cfg.Workers, func(di, ai int) float64 {
		return runTask(domains[di].Corpus, 0, cfg,
			core.Options{DisabledModalities: ablations[ai]}).Quality.F1
	})
	var out Figure7Result
	for di, d := range domains {
		out.Rows = append(out.Rows, Figure7Row{
			Dataset:      d.Name,
			All:          f1[di][0],
			NoTextual:    f1[di][1],
			NoStructural: f1[di][2],
			NoTabular:    f1[di][3],
			NoVisual:     f1[di][4],
		})
	}
	return out
}

// String renders the Figure 7 series.
func (r Figure7Result) String() string {
	t := &table{header: []string{"Dataset", "All", "NoTextual", "NoStructural", "NoTabular", "NoVisual"}}
	for _, row := range r.Rows {
		t.add(row.Dataset, f2(row.All), f2(row.NoTextual), f2(row.NoStructural), f2(row.NoTabular), f2(row.NoVisual))
	}
	return "Figure 7: feature-modality ablation (F1)\n" + t.String()
}

// Figure8Row is one dataset's supervision-ablation series.
type Figure8Row struct {
	Dataset      string
	All          float64
	OnlyMetadata float64
	OnlyTextual  float64
}

// Figure8Result reproduces Figure 8.
type Figure8Result struct {
	Rows []Figure8Row
}

// Figure8 partitions each task's labeling functions into textual and
// metadata (structural/tabular/visual) pools; the twelve (domain, LF
// pool) configurations fan out.
func Figure8(cfg Config) Figure8Result {
	domains := Domains(cfg)
	const nPools = 3
	f1 := runGrid(len(domains), nPools, cfg.Workers, func(di, pi int) float64 {
		task := domains[di].Corpus.Tasks[0]
		pools := [][]labeling.LF{task.LFs, labeling.MetadataOnly(task.LFs), labeling.TextualOnly(task.LFs)}
		return runTask(domains[di].Corpus, 0, cfg, core.Options{LFs: pools[pi]}).Quality.F1
	})
	var out Figure8Result
	for di, d := range domains {
		out.Rows = append(out.Rows, Figure8Row{
			Dataset:      d.Name,
			All:          f1[di][0],
			OnlyMetadata: f1[di][1],
			OnlyTextual:  f1[di][2],
		})
	}
	return out
}

// String renders the Figure 8 series.
func (r Figure8Result) String() string {
	t := &table{header: []string{"Dataset", "All", "Only Metadata", "Only Textual"}}
	for _, row := range r.Rows {
		t.add(row.Dataset, f2(row.All), f2(row.OnlyMetadata), f2(row.OnlyTextual))
	}
	return "Figure 8: supervision-modality ablation (F1)\n" + t.String()
}
