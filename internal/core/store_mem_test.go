//go:build !race

package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestStoreFeatureBytesPerPair bounds what the store itself holds of the
// Features relation, per (candidate, feature) pair: a four-byte
// dictionary id, the pair's share of its row's slice header, and of the
// dictionary (a name is kept once, however many candidates carry it) —
// where a string header and, for most pairs, a private copy of the name
// cost about 46 bytes. Run without the race detector: it measures the
// heap.
func TestStoreFeatureBytesPerPair(t *testing.T) {
	corpus := synth.Electronics(8, 120)
	st := core.NewStore(corpus.Tasks[0], core.Options{})
	defer st.Close()
	// Two documents a batch, as the serving writer ingests.
	for i := 0; i < len(corpus.Docs); i += 2 {
		if err := st.AddDocuments(corpus.Docs[i : i+2]...); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // a sync.Pool gives its contents up over two
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := liveHeap()
	pairs := st.ForgetFeatures()
	without := liveHeap()
	runtime.KeepAlive(st)
	perPair := float64(with-without) / float64(pairs)
	t.Logf("the store holds %.2f B per (candidate, feature) pair (%d pairs, %d candidates)", perPair, pairs, st.NumCandidates())
	if perPair > 6 {
		t.Errorf("the store holds %.2f B per (candidate, feature) pair, want <= 6", perPair)
	}
}
