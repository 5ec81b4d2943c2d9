package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/kbase"
)

// The relations of the store_spill session that are replayed into each
// storage engine, and the cap on rows taken from each: the features
// relation dwarfs the rest and a slice of it is enough to be far larger
// than the 16 x 128-row page cache.
var engineRelations = []string{"candidates", "sentences", "features"}

const (
	engineRowCap  = 100_000
	pointProbes   = 200 // page and index reads per engine
	scanProbes    = 20  // zone-pruned and full filtered scans per engine
	enginePageLen = 128
)

// engineReplay is what every engine is fed: the session's relations, read
// once, and the seeded probe stream.
type engineReplay struct {
	src   *kbase.DB
	rows  map[string][]kbase.Tuple
	feats []kbase.Tuple // rows["features"]
	nRows int
	rng   *rand.Rand
	dir   string
}

func (p *engineReplay) probe() kbase.Tuple { return p.feats[p.rng.Intn(len(p.feats))] }

// traceEngines replays the session's relations into each kbase engine
// through kbase.Table — the one layer, used three ways — a span around
// every table call, and derives the kbase.<engine>.* metrics. The filtered
// reads run against the features relation (cand:integer, seq:integer,
// feature): cand is clustered by ingestion order, so an equality on it
// prunes by zone map; feature is not.
func traceEngines(e *env, r *result, tr *tracer, src *kbase.DB, dir string) error {
	p := &engineReplay{src: src, rows: map[string][]kbase.Tuple{}, rng: rand.New(rand.NewSource(e.seed)), dir: dir}
	for _, name := range engineRelations {
		tbl := src.Table(name)
		if tbl == nil {
			return fmt.Errorf("session has no %s relation", name)
		}
		tbl.Scan(func(t kbase.Tuple) bool {
			p.rows[name] = append(p.rows[name], t.Clone())
			return len(p.rows[name]) < engineRowCap
		})
		p.nRows += len(p.rows[name])
	}
	if p.feats = p.rows["features"]; len(p.feats) == 0 {
		return fmt.Errorf("features relation is empty")
	}
	for _, kind := range kbaseEngines {
		if err := p.trace(r, tr, kind); err != nil {
			return fmt.Errorf("%s engine: %w", kind, err)
		}
	}
	return nil
}

func (p *engineReplay) trace(r *result, tr *tracer, kind string) error {
	engine, err := kbase.NewEngine(kind, filepath.Join(p.dir, "engine-"+kind))
	if err != nil {
		return err
	}
	db := kbase.NewDBWith(engine)
	defer db.Close()
	span := func(op string, i int, fn func()) time.Duration {
		return tr.run("kbase."+kind+"."+op, 0, i, func(int) { fn() })
	}
	set := func(metric string, v float64, note string) { r.set("kbase."+kind+"."+metric, v, note) }
	medianUS := func(op string) float64 {
		return median(durationsTo(tr.durations("kbase."+kind+"."+op), micros))
	}

	appendDur := span("append", 0, func() {
		for _, name := range engineRelations {
			var tbl *kbase.Table
			if tbl, err = db.Create(p.src.Table(name).Schema()); err != nil {
				return
			}
			for _, t := range p.rows[name] {
				if _, err = tbl.Insert(t); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	set("append_us_per_row", micros(appendDur)/float64(p.nRows), fmt.Sprintf("%d rows of %v", p.nRows, engineRelations))
	tbl := db.Table("features")

	for i := 0; i < pointProbes; i++ {
		off := p.rng.Intn(max(1, len(p.feats)-enginePageLen))
		span("page", i, func() { tbl.Page(off, enginePageLen) })
	}
	set("page_us", medianUS("page"), fmt.Sprintf("median of %d Table.Page(k, %d) over %d rows", pointProbes, enginePageLen, len(p.feats)))

	// Scans first, with the planner kept from building an index.
	tbl.SetAutoIndex(false)
	for i := 0; i < scanProbes; i++ {
		row := p.probe()
		cand, feature := fmt.Sprint(row[0]), fmt.Sprint(row[2])
		var plan kbase.PlanInfo
		span("pagewhere_zone", i, func() { _, _, plan = tbl.PageWhereInfo([]kbase.Pred{{Col: 0, Want: cand}}, 0, pageLimit) })
		r.check(plan.Plan == "scan", "%s engine answered a clustered-column filter by %q, want a scan", kind, plan.Plan)
		span("pagewhere_full", i, func() { tbl.PageWhere([]kbase.Pred{{Col: 2, Want: feature}}, 0, pageLimit) })
	}
	set("pagewhere_zone_us", medianUS("pagewhere_zone"), fmt.Sprintf("median of %d equality filters on the clustered cand column, no index", scanProbes))
	set("pagewhere_full_us", medianUS("pagewhere_full"), fmt.Sprintf("median of %d equality filters on the unclustered feature column", scanProbes))

	if err := tbl.EnsureIndex("cand"); err != nil {
		return err
	}
	tbl.PageWhere([]kbase.Pred{{Col: 0, Want: fmt.Sprint(p.probe()[0])}}, 0, pageLimit) // builds the index
	indexed := true
	for i := 0; i < pointProbes; i++ {
		cand := fmt.Sprint(p.probe()[0])
		var plan kbase.PlanInfo
		span("pagewhere_index", i, func() { _, _, plan = tbl.PageWhereInfo([]kbase.Pred{{Col: 0, Want: cand}}, 0, pageLimit) })
		indexed = indexed && plan.Plan == "index"
	}
	r.check(indexed, "%s engine did not answer every indexed filter through the index", kind)
	set("pagewhere_index_us", medianUS("pagewhere_index"), fmt.Sprintf("median of %d equality filters through the cand hash index", pointProbes))

	scanned := 0
	scanDur := span("scan", 0, func() {
		for _, name := range engineRelations {
			db.Table(name).Scan(func(kbase.Tuple) bool { scanned++; return true })
		}
	})
	r.check(scanned == p.nRows, "%s engine scanned %d rows of %d", kind, scanned, p.nRows)
	set("scan_rows_per_s", float64(scanned)/seconds(scanDur), fmt.Sprintf("%d rows", scanned))
	if stats := db.Stats(); kind == "columnar" { // disk's is the real server's, from /meta; memory has no cache
		set("cache_hit_rate", stats.HitRate(), fmt.Sprintf("%d hits, %d misses, %d pages skipped over the reads above", stats.CacheHits, stats.CacheMisses, stats.PagesSkipped))
	}

	snap := filepath.Join(p.dir, "engine-snapshot-"+kind)
	saveDur := span("snapshot", 0, func() { err = kbase.SaveDB(db, snap) })
	if err != nil {
		return err
	}
	size, err := dirBytes(snap)
	if err != nil {
		return err
	}
	set("snapshot_mb_per_s", float64(size)/1e6/seconds(saveDur), fmt.Sprintf("%d bytes", size))
	loadEngine, err := kbase.NewEngine(kind, filepath.Join(p.dir, "engine-load-"+kind))
	if err != nil {
		return err
	}
	var loaded *kbase.DB
	loadDur := span("load", 0, func() { loaded, err = kbase.LoadDBWith(snap, loadEngine) })
	if err != nil {
		return err
	}
	r.check(kbase.EqualDB(loaded, db), "%s engine: the loaded snapshot differs from what was saved", kind)
	loaded.Close()
	set("load_mb_per_s", float64(size)/1e6/seconds(loadDur), "the same snapshot through LoadDBWith")

	// Delete the newest hundredth of the candidates' feature rows: the
	// survivors are rewritten in place.
	cut := p.feats[len(p.feats)-1-len(p.feats)/100][0].(int64)
	deleted := 0
	delDur := span("deletewhere", 0, func() {
		deleted = tbl.DeleteWhere(func(t kbase.Tuple) bool { return t[0].(int64) > cut })
	})
	set("deletewhere_ms", millis(delDur), fmt.Sprintf("%d of %d rows deleted", deleted, len(p.feats)))
	return nil
}
