package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// env is what every workload run shares.
type env struct {
	outDir string // benchmark/out: binary, run directories, trace files
	bin    string // built fonduer-serve ("" for in-process-only runs)
	seed   int64
	secs   float64 // nominal measured seconds
	smoke  bool    // tiny inputs, all checks on
	trace  bool    // also run the in-process traced replay
	nproc  int
	log    io.Writer
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 3

// runDir creates a fresh scratch directory under out/ for one server
// lifetime (store, snapshots, TMPDIR); the caller removes it.
func (e *env) runDir(tag string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, "run-"+tag+"-")
}

// tracePath is where a workload's spans go.
func (e *env) tracePath(workload string) string {
	return filepath.Join(e.outDir, "trace-"+workload+".json")
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// quiesce flushes what set-up left pending in the kernel before the
// measured phase starts. The repeated set-ups create and delete thousands
// of spill and snapshot files; on a journalled disk mounted with discard
// their writeback and TRIMs otherwise land in the measurement, and whether
// they do depends on what ran before the benchmark.
func quiesce() { syscall.Sync() }

// result is one workload run: operation counts, and every metric it
// measured by name. Which of the values a run reports is decided by the
// caller from the spec (end-to-end untraced, per-layer traced).
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Values    map[string]float64 `json:"values"`
	Notes     map[string]string  `json:"notes,omitempty"`
	// Budget is the traced replay's self time per span name, in
	// milliseconds per operation (write workloads: per upload).
	Budget map[string]float64 `json:"budgetMs,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Values: map[string]float64{}, Notes: map[string]string{}}
}

// ok counts n checked operations that passed.
func (r *result) ok(n int) { r.Attempted += n }

// fail counts one operation that failed a check; a failed or refused
// request misses every limit. The first few messages are kept.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	if len(r.Failures) < 12 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed unless cond holds.
func (r *result) check(cond bool, format string, args ...any) bool {
	if cond {
		r.ok(1)
	} else {
		r.fail(format, args...)
	}
	return cond
}

// set records a metric; note carries its sample count or definition.
func (r *result) set(name string, v float64, note string) {
	r.Values[name] = v
	if note != "" {
		r.Notes[name] = note
	}
}

// timing records a latency metric and enforces the percentile rule: the
// note states the sample count, and flags a percentile the samples do not
// carry (fewer than ten beyond it).
func (r *result) timing(name string, asc []float64, p float64) {
	note := fmt.Sprintf("p%g of n=%d", p, len(asc))
	if !supported(len(asc), p) {
		note += fmt.Sprintf(" (UNSUPPORTED: %d samples beyond, highest supported p%g)", samplesBeyond(len(asc), p), highestSupported(len(asc)))
	}
	r.set(name, percentile(asc, p), note)
}

// print writes every measured metric by name with its unit.
func (r *result) print(w io.Writer) {
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: %d operations attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, n := range names {
		note := ""
		if s := r.Notes[n]; s != "" {
			note = "   # " + s
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-6s%s\n", n, r.Values[n], units[n], note)
	}
	if len(r.Budget) > 0 {
		spans := make([]string, 0, len(r.Budget))
		for n := range r.Budget {
			spans = append(spans, n)
		}
		sort.Slice(spans, func(i, j int) bool { return r.Budget[spans[i]] > r.Budget[spans[j]] })
		fmt.Fprintf(w, "   self time per operation in the traced replay:\n")
		for _, n := range spans {
			fmt.Fprintf(w, "      %-24s %8.3f ms\n", n, r.Budget[n])
		}
	}
}
