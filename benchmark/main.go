// Command benchmark is the repository's benchmark: four workloads over the
// seeded synthetic ELECTRONICS corpus, a real fonduer-serve process where
// the workload says so, output checks on every operation, and a per-layer
// trace. See README.md for every workload and metric.
//
//	go run ./benchmark                                   # all workloads, end-to-end metrics
//	go run ./benchmark -workload serve_read -seed 7      # one workload
//	go run ./benchmark -workload store_spill -trace 1    # plus the traced in-process replay
//	go run ./benchmark -repeat 2 -trace 1 -out benchmark/results/BENCH_<pr>.json
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

var runners = map[string]func(*env) (*result, error){
	"batch_kbc":    runBatch,
	"serve_read":   runRead,
	"serve_ingest": func(e *env) (*result, error) { return runIngest(e, ingestConfig(e)) },
	"store_spill":  func(e *env) (*result, error) { return runIngest(e, spillConfig(e)) },
}

// reported is one metric of the final JSON line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// outFile is what -out records: the machine, and every value of every run.
type outFile struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	Sets       [][]*result `json:"sets"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the upload order and of every request stream")
	secs := flag.Float64("seconds", runSeconds, "nominal length of the measured phase")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process replay and report the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and judge each end-to-end metric's spread against its bound")
	smoke := flag.Bool("smoke", false, "tiny inputs, a few seconds per workload, every check on")
	out := flag.String("out", "", "also write every measured value of every run to this JSON file")
	spec := flag.Bool("spec", false, "print the contents of BENCHMARK.json and exit")
	flag.Parse()
	if *spec {
		data, _ := json.MarshalIndent(specFile(), "", "  ")
		fmt.Println(string(data))
		return
	}
	if err := run(*workload, *seed, *secs, *trace == 1, *repeat, *smoke, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// commit names the measured source when the checkout is a git repository
// (the benchmark driver's is not).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// stdout receives everything the benchmark prints; the tests silence it.
var stdout io.Writer = os.Stdout

func run(workload string, seed int64, secs float64, trace bool, repeat int, smoke bool, out string) error {
	names := workloadNames()
	if workload != "all" {
		if runners[workload] == nil {
			return fmt.Errorf("unknown workload %q (want %s or all)", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}
	if secs <= 0 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	// The driver side is pinned to at most two processors so it cannot
	// crowd the server out on a small machine.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 2))
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	e := &env{outDir: filepath.Join(root, "benchmark", "out"),
		seed: seed, secs: secs, smoke: smoke, trace: trace, nproc: nproc, log: stdout}
	if smoke {
		e.secs = min(secs, 1.5)
	}
	// In-process disk engines spill under TMPDIR: keep that inside the
	// checkout too.
	tmp := filepath.Join(e.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	os.Setenv("TMPDIR", tmp)
	file := outFile{Commit: commit(root), GoVersion: runtime.Version(), NumCPU: nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: e.secs, Trace: trace}
	e.logf("benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %.1f s, trace %v",
		file.Commit, file.GoVersion, nproc, file.GOMAXPROCS, seed, e.secs, trace)
	if len(names) > 1 || names[0] != "batch_kbc" {
		if e.bin, err = buildServer(root, e.outDir); err != nil {
			return err
		}
	}

	for k := 0; k < repeat; k++ {
		var set []*result
		for _, name := range names {
			r, err := runners[name](e)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			r.print(e.log)
			set = append(set, r)
		}
		file.Sets = append(file.Sets, set)
	}
	spreadOK := true
	if repeat > 1 {
		spreadOK = printSpreads(e, file.Sets)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	sum, err := summarize(file.Sets[len(file.Sets)-1], trace)
	if err != nil {
		return err
	}
	for _, set := range file.Sets[:len(file.Sets)-1] {
		for _, r := range set {
			sum.Attempted += r.Attempted
			sum.Failed += r.Failed
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return fmt.Errorf("%d of %d operations failed their output checks", sum.Failed, sum.Attempted)
	}
	if !spreadOK {
		return fmt.Errorf("an end-to-end metric's spread exceeds its bound")
	}
	return nil
}

// summarize builds the final line from one set: with one workload the
// metric names are the spec's; with several each is prefixed
// "<workload>/". An end-to-end metric a run did not measure is an error;
// a per-layer metric the workload does not exercise reads 0.
func summarize(set []*result, trace bool) (summary, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	sum := summary{Metrics: map[string]reported{}}
	for _, r := range set {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		prefix := ""
		if len(set) > 1 {
			prefix = r.Workload + "/"
		}
		for _, m := range specs {
			v, ok := r.Values[m.Name]
			if !trace && (!ok || v == 0) {
				return sum, fmt.Errorf("%s did not measure end-to-end metric %s", r.Workload, m.Name)
			}
			sum.Metrics[prefix+m.Name] = reported{Value: v, Unit: m.Unit}
		}
	}
	return sum, nil
}

// printSpreads prints, for every workload and end-to-end metric, min,
// median, max and spread over the repeated sets beside the bound, and
// reports whether every spread stayed inside its bound. Metrics that must
// repeat exactly are checked too.
func printSpreads(e *env, sets [][]*result) bool {
	ok := true
	e.logf("== spread over %d sets (max-min over median for 2 sets, quartile distance over median from 4)", len(sets))
	for wi, first := range sets[0] {
		for _, m := range endToEnd {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[wi].Values[m.Name])
			}
			s := sorted(xs)
			spread := quartileSpread(xs)
			if len(xs) < 4 {
				spread = (s[len(s)-1] - s[0]) / median(s)
			}
			verdict := "ok"
			if spread > m.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			e.logf("   %-13s %-18s min %12.4f  median %12.4f  max %12.4f %-4s spread %6.2f%%  bound %4.0f%%  %s",
				first.Workload, m.Name, s[0], median(s), s[len(s)-1], m.Unit, spread*100, m.Bound*100, verdict)
		}
		for _, name := range exactMetrics {
			v0, measured := first.Values[name]
			for _, set := range sets[1:] {
				if v, has := set[wi].Values[name]; has != measured || v != v0 {
					e.logf("   %-13s %-18s does not repeat exactly: %v vs %v", first.Workload, name, v0, v)
					ok = false
				}
			}
		}
	}
	return ok
}

// exactMetrics repeat bit for bit between runs of one commit and seed.
var exactMetrics = []string{"kbc_f1", "model.final_loss", "obs.request_count_delta"}
