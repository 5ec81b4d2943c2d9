// Command fonduer-bench regenerates the paper's evaluation: every
// table (2-6) and figure (4, 6-9) of Section 5-6 plus the Appendix C
// scale studies, printing the same rows and series the paper reports.
// The numbers in EXPERIMENTS.md come from this command at the default
// configuration.
//
// Usage:
//
//	fonduer-bench                 # run everything at default size
//	fonduer-bench -exp table2     # one experiment
//	fonduer-bench -fast           # small corpora (quick sanity run)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table2..table6, fig4, fig6..fig9, cache, sparse, speedup")
	fast := flag.Bool("fast", false, "use the small test configuration")
	seed := flag.Int64("seed", 0, "override the config seed (0 = default)")
	workers := flag.Int("workers", 0, "worker pool size for parallel stages (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *fast {
		cfg = experiments.FastConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	if err := runExperiments(os.Stdout, cfg, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "fonduer-bench:", err)
		os.Exit(1)
	}
}

// runner names one reproducible experiment.
type runner struct {
	name string
	run  func(experiments.Config) fmt.Stringer
}

// runners enumerates every experiment this command can regenerate.
func runners() []runner {
	return []runner{
		{"table2", func(cfg experiments.Config) fmt.Stringer { return experiments.Table2(cfg) }},
		{"table3", func(cfg experiments.Config) fmt.Stringer { return experiments.Table3(cfg) }},
		{"table4", func(cfg experiments.Config) fmt.Stringer { return experiments.Table4(cfg) }},
		{"table5", func(cfg experiments.Config) fmt.Stringer { return experiments.Table5(cfg) }},
		{"table6", func(cfg experiments.Config) fmt.Stringer { return experiments.Table6(cfg) }},
		{"fig4", func(cfg experiments.Config) fmt.Stringer { return experiments.Figure4(cfg) }},
		{"fig6", func(cfg experiments.Config) fmt.Stringer { return experiments.Figure6(cfg) }},
		{"fig7", func(cfg experiments.Config) fmt.Stringer { return experiments.Figure7(cfg) }},
		{"fig8", func(cfg experiments.Config) fmt.Stringer { return experiments.Figure8(cfg) }},
		{"fig9", func(cfg experiments.Config) fmt.Stringer { return experiments.Figure9(cfg) }},
		{"cache", func(cfg experiments.Config) fmt.Stringer { return experiments.CacheStudy(cfg) }},
		{"sparse", func(experiments.Config) fmt.Stringer { return experiments.DefaultSparseStudy() }},
		{"speedup", func(cfg experiments.Config) fmt.Stringer { return experiments.SpeedupStudy(cfg) }},
	}
}

// runExperiments regenerates the selected experiment ("all" for every
// one) at the given configuration, writing each result and its
// wall-clock cost to w.
func runExperiments(w io.Writer, cfg experiments.Config, exp string) error {
	matched := false
	for _, r := range runners() {
		if exp != "all" && exp != r.name {
			continue
		}
		matched = true
		start := time.Now()
		result := r.run(cfg)
		fmt.Fprintln(w, strings.TrimRight(result.String(), "\n"))
		fmt.Fprintf(w, "[%s took %.1fs]\n\n", r.name, time.Since(start).Seconds())
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
