package model

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// trajectoryHash folds every trained weight (params order) and the
// reported final loss into one FNV-64a over their IEEE-754 bits.
func trajectoryHash(m *Model, st TrainStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, p := range m.params {
		for _, w := range p.W {
			put(w)
		}
	}
	put(st.FinalLoss)
	return h.Sum64()
}

// TestGoldenTrajectory pins the training trajectory and the inference
// path bit for bit. The hashes and probability bits were recorded from
// the define-by-run closure tape (commit 571bbb0, linux/amd64) before
// the arena tape and the fused LSTM/attention ops replaced it; any
// change to an accumulation order, in a kernel or in the Train loop's
// gradient sweeps, moves them. Clip 0.05 forces the clip scale on every
// step. Every row trains one example per Adam step; the names keep the
// batch=1 they have always had, so each name still labels its hash.
// Bits are pinned per platform: on amd64 math.Exp is assembly that
// takes an FMA path (math/exp_amd64.s), so other architectures train
// to other, equally valid, bits.
func TestGoldenTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes are amd64's: math.Exp takes an FMA path there (math/exp_amd64.s), so %s rounds differently", runtime.GOARCH)
	}
	exs := mixedDataset(16)
	variants := map[string]func() *Model{
		"fonduer": func() *Model { return NewFonduer(1, 10, 11, exs) },
		"text":    func() *Model { return NewTextBiLSTM(1, 11, exs) },
		// Six tokens is shorter than the marked sentence, so the
		// document window's truncation is on the path.
		"docrnn":  func() *Model { return NewDocRNN(11, exs, 6) },
		"maxpool": func() *Model { return NewMaxPoolText(1, 11, exs) },
	}
	for _, tc := range []struct {
		variant  string
		clip     float64
		hash     uint64
		probBits uint64 // PredictProb(exs[0]) after training
	}{
		{"fonduer", 0, 0x57f282432b40b4c3, 4607180274654557346},
		{"text", 0, 0xf301828a83b16a30, 4607180343417408766},
		{"docrnn", 0, 0x6f2f86d0d6822867, 4607177248320851536},
		{"maxpool", 0, 0xf5c027b3447648f1, 4607177779939641850},
		{"fonduer", 0.05, 0xc22ee93518491477, 4607182406229861927},
		{"text", 0.05, 0xb07c7c76412bfdd6, 4607182368960266727},
		{"docrnn", 0.05, 0xf9b3e8e537aef579, 4607182290522134624},
		{"maxpool", 0.05, 0x8788364288cd544d, 4607182300908787800},
	} {
		t.Run(fmt.Sprintf("%s/batch=1/clip=%v", tc.variant, tc.clip), func(t *testing.T) {
			m := variants[tc.variant]()
			st := m.Train(exs, TrainOptions{Epochs: 3, LR: 0.02, L2: 1e-4, Clip: tc.clip})
			if got := trajectoryHash(m, st); got != tc.hash {
				t.Errorf("trajectory hash %#x, want %#x (final loss %v)", got, tc.hash, st.FinalLoss)
			}
			if got := math.Float64bits(m.PredictProb(exs[0])); got != tc.probBits {
				t.Errorf("PredictProb bits %d, want %d", got, tc.probBits)
			}
		})
	}
}
