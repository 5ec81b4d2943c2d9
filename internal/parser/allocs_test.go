//go:build !race

package parser_test

import (
	"runtime"
	"testing"

	"repro/internal/parser"
	"repro/internal/synth"
)

// TestParseAllocs bounds what parsing one uploaded datasheet allocates
// (the race detector changes allocation sizes, hence the build tag): the
// mean over 60 synthetic electronics documents, HTML source plus vdoc
// through Parse, is 0.25 MB in 2 600 objects. It was 1.44 MB while
// ParseVDoc allocated its scanner's 1 MB line limit up front for every
// document and every text node built its own entity replacer.
func TestParseAllocs(t *testing.T) {
	const docs = 60
	elec := synth.Electronics(8, docs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, src := range elec.Sources {
		if _, err := parser.Parse(elec.Docs[i].Name, "html", src["html"], src["vdoc"]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / docs / 1e6
	t.Logf("parser.Parse: %.3f MB, %d objects a document", mb, (after.Mallocs-before.Mallocs)/docs)
	if mb > 0.35 {
		t.Errorf("parsing a document allocates %.3f MB, want <= 0.35", mb)
	}
}

// TestParseSpanBombAllocs bounds what a table costs by its width, not
// its area: the 36 KB span bomb allocates well under 1 MB. A grid
// occupancy map over (row, column) slots allocated 447 MB for it.
func TestParseSpanBombAllocs(t *testing.T) {
	src := spanBomb(4000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := parser.Parse("bomb", "html", src, ""); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%d KB span bomb: %.3f MB, %d objects", len(src)/1000, mb, after.Mallocs-before.Mallocs)
	if mb >= 1 {
		t.Errorf("parsing the %d KB span bomb allocates %.3f MB, want < 1", len(src)/1000, mb)
	}
}
