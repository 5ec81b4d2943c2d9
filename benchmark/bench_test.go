package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// The percentile rule: a percentile is reported only with at least ten
// samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false},
		{100, 90, true}, {99, 90, false}, {200, 95, true}, {10000, 99.9, true}, {9999, 99.9, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v (%d beyond)", c.n, c.p, got, c.want, samplesBeyond(c.n, c.p))
		}
	}
	for n, want := range map[int]float64{5: 0, 19: 0, 20: 50, 100: 90, 120: 90, 200: 95, 1000: 99, 20000: 99.9} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", n, got, want)
		}
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 90); got != 90 {
		t.Errorf("nearest-rank p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(asc, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %g, want 100", got)
	}
	r := newResult("t")
	r.timing("x", asc, 95)
	if note := r.Notes["x"]; !regexp.MustCompile(`UNSUPPORTED: 5 samples beyond, highest supported p90`).MatchString(note) {
		t.Errorf("an unsupported percentile must say so, got %q", note)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4), which
// the driver uses: quantiles(range(1, 11)) = [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	xs := []float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// quantiles([3, 3, 4, 10]) = [3.0, 3.5, 8.5]
	if got, want := quartileSpread([]float64{10, 3, 4, 3}), (8.5-3.0)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread([3 3 4 10]) = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A span's self time is its duration minus the part of its interval its
// children cover: overlapping children count once, and a child running
// past its parent counts only up to the parent's end.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 2, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// A nil tracer still times, and records nothing.
	var tr *tracer
	if d := tr.run("x", 0, 0, func(int) {}); d < 0 || tr.durations("x") != nil {
		t.Errorf("nil tracer: duration %v, durations %v", d, tr.durations("x"))
	}
	tr = newTracer()
	tr.run("outer", 0, 1, func(id int) { tr.run("inner", id, 1, func(int) {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("nested spans recorded as %+v", tr.spans)
	}
}

// The same seed gives the same inputs, another seed others.
func TestSeededInputs(t *testing.T) {
	rt := newReadTable(175, []string{"bc1234", "pn5678a", "smbt2222"}, 1100)
	a, b, c := rt.sequence(7, 0, 500), rt.sequence(7, 0, 500), rt.sequence(8, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, rt.sequence(7, 1, 500)) {
		t.Error("another seed or connection gave the same request sequence")
	}
	counts := [numReadKinds]int{}
	absent := 0
	for _, idx := range rt.sequence(3, 0, 20000) {
		op := rt.ops[idx]
		counts[op.kind]++
		if op.absent {
			absent++
		}
	}
	for kind, want := range map[readKind]float64{readPage: 0.50, readFilter: 0.25, readFull: 0.10, readCandidates: 0.10, readMeta: 0.05} {
		if share := float64(counts[kind]) / 20000; math.Abs(share-want) > 0.02 {
			t.Errorf("%s is %.3f of the mix, want %.2f", readKindNames[kind], share, want)
		}
	}
	if share := float64(absent) / float64(counts[readFilter]); math.Abs(share-0.2) > 0.03 {
		t.Errorf("%.3f of the filter probes are absent from the KB, want one in five", share)
	}

	if !reflect.DeepEqual(uploadOrder(5, 40), uploadOrder(5, 40)) || reflect.DeepEqual(uploadOrder(5, 40), uploadOrder(6, 40)) {
		t.Error("uploadOrder is not a function of the seed alone")
	}
	train, test := splitOrder(5, 40)
	if len(train) != 20 || len(test) != 20 {
		t.Fatalf("split of 40 is %d/%d", len(train), len(test))
	}
	for _, i := range train {
		if i%2 != 0 {
			t.Errorf("pool document %d trains under seed 5 but is on the test side by position", i)
		}
	}
	in1, err := makeInputs(6)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := makeInputs(6)
	if !reflect.DeepEqual(in1.docs, in2.docs) || in1.docs[0].HTML == "" || in1.docs[0].VDoc == "" {
		t.Error("the document pool is not reproducible")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the spec table serialised, and both stay inside the
// limits of the benchmark contract.
func TestSpecMatchesFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := specFile(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the spec table; regenerate it with `go run ./benchmark -spec`\n got %+v\nwant %+v", file, want)
	}
	if n := len(file.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(file.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range file.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	setup := false
	for _, m := range file.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range file.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range file.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

// The final line has exactly the contract's keys and, untraced, every
// end-to-end metric; a run that failed to measure one is an error.
func TestSummaryShape(t *testing.T) {
	r := newResult("serve_read")
	r.ok(10)
	r.fail("boom %d", 1)
	for i, m := range endToEnd {
		r.set(m.Name, float64(i)+1.5, "")
	}
	r.set("read_rps", 123, "")
	sum, err := summarize([]*result{r}, false)
	if err != nil {
		t.Fatal(err)
	}
	sum.Correct = sum.Failed == 0
	line, _ := json.Marshal(sum)
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back["correct"] == nil || back["attempted"] == nil || back["failed"] == nil || back["metrics"] == nil {
		t.Errorf("final line has keys %v", back)
	}
	var metrics map[string]reported
	json.Unmarshal(back["metrics"], &metrics)
	if len(metrics) != len(endToEnd) || metrics["setup_s"].Unit != "s" || metrics["setup_s"].Value != 1.5 {
		t.Errorf("untraced metrics are %v", metrics)
	}
	if sum.Correct || sum.Attempted != 11 || sum.Failed != 1 {
		t.Errorf("counts %+v", sum)
	}
	traced, err := summarize([]*result{r}, true)
	if err != nil || len(traced.Metrics) != len(perLayer) || traced.Metrics["read_rps"].Value != 123 || traced.Metrics["resume_s"].Value != 0 {
		t.Errorf("traced summary: %v, %d metrics", err, len(traced.Metrics))
	}
	delete(r.Values, "train_s")
	if _, err := summarize([]*result{r}, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
}

// The smoke pass: every workload end to end on tiny inputs — the real
// server built and launched, the traced replays, every output check —
// so tier-1 keeps the harness compiling and honest.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	traced := !testing.Short() // the replays double the time, more under -race
	stdout = io.Discard
	defer func() { stdout = os.Stdout }()
	if err := run("all", 3, 1, traced, 1, true, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file outFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Sets) != 1 || len(file.Sets[0]) != len(workloads) {
		t.Fatalf("smoke recorded %d sets", len(file.Sets))
	}
	for _, r := range file.Sets[0] {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range endToEnd {
			if r.Values[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", r.Workload, m.Name, r.Values[m.Name])
			}
		}
		if _, err := os.Stat(filepath.Join("out", "trace-"+r.Workload+".json")); traced && err != nil {
			t.Errorf("%s wrote no span file: %v", r.Workload, err)
		}
		for name := range r.Values {
			if !knownMetric(name) {
				t.Errorf("%s measured %q, which BENCHMARK.json does not list", r.Workload, name)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join("out", "run-*")); len(left) != 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

func knownMetric(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}
