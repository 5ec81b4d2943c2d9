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
// step; Batch 4 exercises the slot reduction and the 1/n averaging.
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
		batch    int
		clip     float64
		hash     uint64
		probBits uint64 // PredictProb(exs[0]) after training
	}{
		{"fonduer", 1, 0, 0x57f282432b40b4c3, 4607180274654557346},
		{"text", 1, 0, 0xf301828a83b16a30, 4607180343417408766},
		{"docrnn", 1, 0, 0x6f2f86d0d6822867, 4607177248320851536},
		{"maxpool", 1, 0, 0xf5c027b3447648f1, 4607177779939641850},
		{"fonduer", 4, 0, 0x657a605b55db94e1, 4607180898823127717},
		{"text", 4, 0, 0xd73f2da6e771e43, 4607180293863427873},
		{"docrnn", 4, 0, 0x1b84bb26d648abb8, 4607044982931851804},
		{"maxpool", 4, 0, 0x382de9b80b6cae15, 4607180271708688625},
		{"fonduer", 1, 0.05, 0xc22ee93518491477, 4607182406229861927},
		{"text", 1, 0.05, 0xb07c7c76412bfdd6, 4607182368960266727},
		{"docrnn", 1, 0.05, 0xf9b3e8e537aef579, 4607182290522134624},
		{"maxpool", 1, 0.05, 0x8788364288cd544d, 4607182300908787800},
		{"fonduer", 4, 0.05, 0x369a05098f736741, 4607181623590629301},
		{"text", 4, 0.05, 0x2ab9c048a92f6760, 4607178999765768019},
		{"docrnn", 4, 0.05, 0x246698da584040aa, 4607103069650536751},
		{"maxpool", 4, 0.05, 0x20041416f9494460, 4607179223842852915},
	} {
		t.Run(fmt.Sprintf("%s/batch=%d/clip=%v", tc.variant, tc.batch, tc.clip), func(t *testing.T) {
			m := variants[tc.variant]()
			st := m.Train(exs, TrainOptions{Epochs: 3, LR: 0.02, L2: 1e-4, Batch: tc.batch, Clip: tc.clip})
			if got := trajectoryHash(m, st); got != tc.hash {
				t.Errorf("trajectory hash %#x, want %#x (final loss %v)", got, tc.hash, st.FinalLoss)
			}
			if got := math.Float64bits(m.PredictProb(exs[0])); got != tc.probBits {
				t.Errorf("PredictProb bits %d, want %d", got, tc.probBits)
			}
		})
	}
}
