package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestSupervisionGolden pins the supervision layer bit for bit: for the
// first task of each synthetic domain it hashes the IEEE-754 bits of
// every marginal, every coverage flag and every LF metric the Supervise
// stage produces. The hashes were recorded before the label model read
// the store's vote rows directly; any change to the order the EM sums
// run in moves them. Like TestGoldenTrajectory's, the bits are amd64's:
// math.Exp takes an FMA path there (math/exp_amd64.s).
func TestSupervisionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes are amd64's: math.Exp takes an FMA path there (math/exp_amd64.s), so %s rounds differently", runtime.GOARCH)
	}
	for _, tc := range []struct {
		domain string
		corpus func() *synth.Corpus
		hash   uint64
	}{
		{"electronics", func() *synth.Corpus { return synth.Electronics(21, 40) }, 0x95f3eae60b531a89},
		{"ads", func() *synth.Corpus { return synth.Ads(22, 80) }, 0x27b0c127cf5e6d4e},
		{"paleo", func() *synth.Corpus { return synth.Paleo(23, 30) }, 0xd3193e3c50e93f9c},
		{"genomics", func() *synth.Corpus { return synth.Genomics(24, 30) }, 0x67646315024bc36d},
	} {
		t.Run(tc.domain, func(t *testing.T) {
			c := tc.corpus()
			task := c.Tasks[0]
			opts := core.Options{Workers: 2}
			cands := core.ParallelExtract(task, c.Docs, opts.Scope, true, opts.Workers)
			marginals, covered, m := core.Supervise(task, opts, cands)
			h := fnv.New64a()
			var b [8]byte
			put := func(f float64) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
			nCovered := 0
			for i, p := range marginals {
				put(p)
				if covered(i) {
					nCovered++
					put(1)
				} else {
					put(0)
				}
			}
			put(m.Coverage)
			put(m.Overlap)
			put(m.Conflict)
			for _, lf := range m.PerLF {
				put(lf.Coverage)
				put(lf.Overlap)
				put(lf.Conflict)
			}
			if got := h.Sum64(); got != tc.hash {
				t.Errorf("supervision hash %#x, want %#x (%d candidates, %d covered, %d LFs)", got, tc.hash, len(marginals), nCovered, len(m.PerLF))
			}
		})
	}
}
