package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunnersCoverAllExperiments pins the experiment registry: every
// name the usage string advertises resolves, and names are unique.
func TestRunnersCoverAllExperiments(t *testing.T) {
	want := []string{
		"table2", "table3", "table4", "table5", "table6",
		"fig4", "fig6", "fig7", "fig8", "fig9",
		"cache", "sparse", "speedup",
	}
	rs := runners()
	if len(rs) != len(want) {
		t.Fatalf("%d runners, want %d", len(rs), len(want))
	}
	seen := map[string]bool{}
	for i, r := range rs {
		if r.name != want[i] {
			t.Errorf("runner %d = %q, want %q", i, r.name, want[i])
		}
		if seen[r.name] {
			t.Errorf("duplicate runner %q", r.name)
		}
		seen[r.name] = true
	}
}

// TestRunExperimentsSmoke exercises the command's whole output path
// on the cheapest experiment (the sparse-representation study needs
// no corpus regeneration).
func TestRunExperimentsSmoke(t *testing.T) {
	var sb strings.Builder
	if err := runExperiments(&sb, experiments.FastConfig(), "sparse"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "[sparse took ") {
		t.Fatalf("missing timing footer:\n%s", out)
	}
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatal("empty experiment output")
	}
}

// TestRunExperimentsUnknown rejects unknown experiment names.
func TestRunExperimentsUnknown(t *testing.T) {
	var sb strings.Builder
	if err := runExperiments(&sb, experiments.FastConfig(), "nosuchexp"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
