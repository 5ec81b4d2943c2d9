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

// TestIngestAllocs bounds what one upload allocates on the writer: a
// two-document AddDocuments and the ViewDelta that publishes it, into a
// 40-document session with a trained generation, on the memory kind.
// Measured (it repeats to a few objects): 0.88 MB in 7 012 objects; the
// bounds are that plus a tenth. While every upload was also mirrored into
// six kbase tables it was 1.19 MB in 7 730 objects — the same with the
// relations keyed (no index over whole rows), as this upload grows no
// index. With a boxed Tuple per mirrored row, the
// relations inserted a document at a time, a seen-set per featurized
// candidate and a prefixed copy of every feature name per candidate, the
// same upload allocated 3.17 MB in 17 393 objects: the bounds are under
// 60 % of that. While each document's feature counts were also kept as a
// map and mirrored as a relation of their own, it was 1.31 MB in 7 808.
func TestIngestAllocs(t *testing.T) {
	corpus := synth.Electronics(8, 42)
	st := core.NewStore(corpus.Tasks[0], core.Options{Seed: 1, Epochs: 1, Backend: "memory"})
	defer st.Close()
	for i := 0; i < 40; i += 2 {
		if err := st.AddDocuments(corpus.Docs[i : i+2]...); err != nil {
			t.Fatal(err)
		}
	}
	view, err := st.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.AddDocuments(corpus.Docs[40:]...); err != nil {
		t.Fatal(err)
	}
	if view, err = st.ViewDelta(view, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if view.NumDocs() != 42 {
		t.Fatalf("the delta view holds %d documents, want 42", view.NumDocs())
	}
	mb, objects := float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs
	t.Logf("one upload: %.2f MB in %d objects", mb, objects)
	const (
		maxMB      = 0.88 * 1.1 // 31 % of the 3.17 it was
		maxObjects = 7012 * 11 / 10
	)
	if mb > maxMB {
		t.Errorf("one upload allocates %.2f MB, want <= %.2f", mb, maxMB)
	}
	if objects > maxObjects {
		t.Errorf("one upload allocates %d objects, want <= %d", objects, maxObjects)
	}
}
