package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/features"
)

// TestMaterializeMatchesSortReference pins materializeStage's bitset
// gather to the per-row sort it replaced, kept here as the reference:
// over seeded random rows of distinct feature ids, some outside the
// frozen index, every row holds the same columns in the same order —
// the order the sparse layer sums them in.
func TestMaterializeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	dict := make([]string, 700) // distinct names, as a session dictionary's
	counts := map[string]int{}
	for id, n := range rng.Perm(10000)[:len(dict)] {
		dict[id] = fmt.Sprintf("f%04d", n)
		if rng.Intn(3) > 0 {
			counts[dict[id]] = 1
		}
	}
	ix := features.IndexFromCounts(counts, 1)
	sp := stagedSplit{dict: dict, names: make([][]uint32, 300)}
	for i := range sp.names {
		for _, id := range rng.Perm(len(dict))[:rng.Intn(120)] {
			sp.names[i] = append(sp.names[i], uint32(id))
		}
	}

	colOf := indexColumns(ix, dict)
	for i, row := range materializeStage(sp, ix) {
		want := []int{}
		for _, id := range sp.names[i] {
			if col := colOf[id]; col >= 0 {
				want = append(want, int(col))
			}
		}
		sort.Ints(want)
		if !reflect.DeepEqual(append([]int{}, row...), want) {
			t.Fatalf("row %d: %v, want %v", i, row, want)
		}
	}
}
