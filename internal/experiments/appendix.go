package experiments

import (
	"fmt"
	"time"

	"repro/internal/candidates"
	"repro/internal/features"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// CacheResult reproduces Appendix C.1: the mention-level feature cache.
type CacheResult struct {
	Candidates   int
	CachedSecs   float64
	UncachedSecs float64
	SpeedUp      float64
	CacheHitRate float64
}

// CacheStudy featurizes the ELECTRONICS candidates with and without
// the mention cache. The paper measures ~100x average speedup on real
// datasheets (hundreds of candidates per mention); the synthetic
// corpus has fewer candidates per mention, so the factor is smaller,
// but the direction and mechanism are identical. Both times are medians
// of timingRuns interleaved runs.
func CacheStudy(cfg Config) CacheResult {
	elec := synth.Electronics(cfg.Seed, cfg.ElecDocs)
	task := elec.Tasks[0]
	ext := &candidates.Extractor{Args: task.Args, Scope: candidates.DocumentScope}
	cands := ext.ExtractAll(elec.Docs)

	var stats features.CacheStats
	run := func(useCache bool) func() float64 {
		return func() float64 {
			fx := features.NewExtractor()
			fx.UseCache = useCache
			start := time.Now()
			for _, c := range cands {
				fx.Featurize(c)
			}
			secs := time.Since(start).Seconds()
			if useCache {
				stats = fx.Stats()
			}
			return secs
		}
	}
	secs := interleavedMedians(run(true), run(false))
	out := CacheResult{
		Candidates:   len(cands),
		CachedSecs:   secs[0],
		UncachedSecs: secs[1],
		CacheHitRate: stats.HitRate(),
	}
	if out.CachedSecs > 0 {
		out.SpeedUp = out.UncachedSecs / out.CachedSecs
	}
	return out
}

// String renders the cache study.
func (r CacheResult) String() string {
	return fmt.Sprintf("Appendix C.1: mention feature caching (ELEC, %d candidates)\n"+
		"uncached: %.3fs   cached: %.3fs   speedup: %.1fx   hit rate: %.2f\n",
		r.Candidates, r.UncachedSecs, r.CachedSecs, r.SpeedUp, r.CacheHitRate)
}

// SparseResult reproduces Appendix C.2: LIL vs COO under the two
// access patterns of the Features and Labels relations.
type SparseResult struct {
	Rows, Cols int
	// UpdateSecs times the development-mode Labels workload: apply a
	// new labeling function (one value per candidate), repeatedly.
	UpdateLILSecs, UpdateCOOSecs float64
	UpdateSpeedup                float64 // COO advantage
	// QuerySecs times the production-mode Features workload: fetch
	// every candidate's full row.
	QueryLILSecs, QueryCOOSecs float64
	QuerySpeedup               float64 // LIL advantage
}

// SparseStudy measures the representation tradeoff with a synthetic
// Features/Labels workload shaped like the ELECTRONICS application
// (sparse rows over a large column space). Every time is the median of
// timingRuns interleaved runs.
func SparseStudy(rows, cols, activePerRow, repeats int) SparseResult {
	out := SparseResult{Rows: rows, Cols: cols}

	// Pre-generate deterministic column choices.
	colOf := func(r, k int) int { return (r*31 + k*977) % cols }

	// --- Update workload (Labels during LF iteration): overwrite one
	// column for every row, several times (a user editing an LF).
	updates := func(m sparse.Matrix) float64 {
		start := time.Now()
		for rep := 0; rep < repeats; rep++ {
			col := rep % cols
			for r := 0; r < rows; r++ {
				m.Set(r, col, float64((r+rep)%3-1))
			}
		}
		return time.Since(start).Seconds()
	}
	// Seed both with a realistic sparse fill first.
	fill := func(m sparse.Matrix) {
		for r := 0; r < rows; r++ {
			for k := 0; k < activePerRow; k++ {
				m.Set(r, colOf(r, k), 1)
			}
		}
	}
	// Each timed run updates a freshly filled matrix.
	update := func(newMatrix func() sparse.Matrix) func() float64 {
		return func() float64 {
			m := newMatrix()
			fill(m)
			return updates(m)
		}
	}
	u := interleavedMedians(
		update(func() sparse.Matrix { return sparse.NewLIL() }),
		update(func() sparse.Matrix { return sparse.NewCOO() }))
	out.UpdateLILSecs, out.UpdateCOOSecs = u[0], u[1]
	if out.UpdateCOOSecs > 0 {
		out.UpdateSpeedup = out.UpdateLILSecs / out.UpdateCOOSecs
	}

	// --- Query workload (Features in production): read rows. COO row
	// queries are orders of magnitude slower (full log scans), so the
	// query pass uses a bounded row sample.
	queryRows := rows
	if queryRows > 300 {
		queryRows = 300
	}
	queries := func(m sparse.Matrix) float64 {
		start := time.Now()
		sink := 0
		for rep := 0; rep < 2; rep++ {
			for r := 0; r < queryRows; r++ {
				sink += len(m.Row(r))
			}
		}
		_ = sink
		return time.Since(start).Seconds()
	}
	lilQ, cooQ := sparse.NewLIL(), sparse.NewCOO()
	fill(lilQ)
	fill(cooQ)
	q := interleavedMedians(func() float64 { return queries(lilQ) }, func() float64 { return queries(cooQ) })
	out.QueryLILSecs, out.QueryCOOSecs = q[0], q[1]
	if out.QueryLILSecs > 0 {
		out.QuerySpeedup = out.QueryCOOSecs / out.QueryLILSecs
	}
	return out
}

// DefaultSparseStudy runs SparseStudy at the scale used in
// EXPERIMENTS.md.
func DefaultSparseStudy() SparseResult {
	return SparseStudy(2000, 10000, 60, 50)
}

// String renders the representation study.
func (r SparseResult) String() string {
	return fmt.Sprintf("Appendix C.2: sparse representations (%d rows x %d cols)\n"+
		"update workload (Labels, dev):  LIL %.4fs  COO %.4fs  -> COO %.1fx faster\n"+
		"query workload (Features, prod): LIL %.4fs  COO %.4fs  -> LIL %.1fx faster\n",
		r.Rows, r.Cols, r.UpdateLILSecs, r.UpdateCOOSecs, r.UpdateSpeedup,
		r.QueryLILSecs, r.QueryCOOSecs, r.QuerySpeedup)
}
