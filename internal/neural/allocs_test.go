//go:build !race

package neural

import (
	"math/rand"
	"testing"
)

// TestAllocsWarmTape is the kernel's allocation guard (the race
// detector changes allocation counts, hence the build tag): once a tape
// has seen an example of the largest shape, building the graph again —
// leaf views, fused LSTM steps, attention, loss — and running Backward
// allocates nothing; nor do a warm Adam step and the forward-only
// pass.
func TestAllocsWarmTape(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	emb := NewEmbedding(9, 4, rng, nil)
	bi := NewBiLSTM(4, 5, rng)
	att := NewAttention(bi.OutDim(), 3, rng)
	head := NewLinear(att.OutDim(), 2, rng)
	ids := []int{3, 1, 4, 1, 5, 2, 6, 5, 3, 5}

	tape := NewTape()
	train := func() {
		tape.Reset()
		seqLoss(tape, emb, bi, att, head, ids)
	}
	train() // warm: sizes the arena, the slabs and the record list
	train() // a replaced block is only right-sized on the pass after
	if n := testing.AllocsPerRun(20, train); n != 0 {
		t.Errorf("forward+backward on a warm tape: %v allocations per run, want 0", n)
	}
	// The step's constants go to the AVX kernel by pointer; they must
	// stay on the stack.
	ps := append(append(emb.Params(), bi.Params()...), att.Params()...)
	opt := NewAdam(0.01)
	opt.StepScaled(ps, 1) // allocates the moment vectors
	if n := testing.AllocsPerRun(20, func() { opt.StepScaled(ps, 0.5) }); n != 0 {
		t.Errorf("warm Adam step: %v allocations per run, want 0", n)
	}

	ft := NewForwardTape()
	var sink float64
	infer := func() {
		ft.Reset()
		xs := ft.Vecs(len(ids))
		for i, id := range ids {
			xs[i] = emb.Lookup(ft, id)
		}
		agg, _ := att.Apply(ft, bi.Run(ft, xs))
		sink += head.Apply(ft, agg).V[0]
	}
	infer()
	infer()
	if n := testing.AllocsPerRun(20, infer); n != 0 {
		t.Errorf("forward-only pass on a warm tape: %v allocations per run, want 0", n)
	}
	_ = sink
}
