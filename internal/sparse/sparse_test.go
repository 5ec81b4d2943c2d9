package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func implementations() []Matrix { return []Matrix{NewLIL(), NewCOO()} }

func TestSetGet(t *testing.T) {
	for _, m := range implementations() {
		t.Run(m.Name(), func(t *testing.T) {
			m.Set(0, 5, 1)
			m.Set(0, 2, -1)
			m.Set(3, 1, 2.5)
			if got := m.Get(0, 5); got != 1 {
				t.Fatalf("Get(0,5) = %v", got)
			}
			if got := m.Get(0, 2); got != -1 {
				t.Fatalf("Get(0,2) = %v", got)
			}
			if got := m.Get(0, 3); got != 0 {
				t.Fatalf("Get(0,3) = %v", got)
			}
			if got := m.Get(99, 0); got != 0 {
				t.Fatalf("Get(99,0) = %v", got)
			}
			if m.NNZ() != 3 {
				t.Fatalf("NNZ = %d", m.NNZ())
			}
			if m.Rows() != 4 {
				t.Fatalf("Rows = %d", m.Rows())
			}
		})
	}
}

func TestUpdateSemantics(t *testing.T) {
	for _, m := range implementations() {
		t.Run(m.Name(), func(t *testing.T) {
			m.Set(1, 1, 1)
			m.Set(1, 1, -1) // overwrite
			if got := m.Get(1, 1); got != -1 {
				t.Fatalf("after overwrite Get = %v", got)
			}
			if m.NNZ() != 1 {
				t.Fatalf("NNZ after overwrite = %d", m.NNZ())
			}
			m.Set(1, 1, 0) // delete
			if got := m.Get(1, 1); got != 0 {
				t.Fatalf("after delete Get = %v", got)
			}
			if m.NNZ() != 0 {
				t.Fatalf("NNZ after delete = %d", m.NNZ())
			}
		})
	}
}

func TestRowOrderAndContent(t *testing.T) {
	for _, m := range implementations() {
		t.Run(m.Name(), func(t *testing.T) {
			m.Set(2, 9, 9)
			m.Set(2, 1, 1)
			m.Set(2, 4, 4)
			m.Set(0, 7, 7)
			row := m.Row(2)
			if len(row) != 3 {
				t.Fatalf("row len = %d", len(row))
			}
			for i, want := range []int{1, 4, 9} {
				if row[i].Col != want || row[i].Val != float64(want) {
					t.Fatalf("row[%d] = %+v", i, row[i])
				}
			}
			if got := m.Row(5); got != nil {
				t.Fatalf("missing row = %v", got)
			}
		})
	}
}

func TestNegativeIndexPanics(t *testing.T) {
	for _, m := range implementations() {
		t.Run(m.Name(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("negative index must panic")
				}
			}()
			m.Set(-1, 0, 1)
		})
	}
}

func TestConversions(t *testing.T) {
	src := NewCOO()
	src.Set(0, 1, 1)
	src.Set(2, 3, 3)
	src.Set(0, 1, 5) // update
	lil := ToLIL(src)
	if lil.Get(0, 1) != 5 || lil.Get(2, 3) != 3 || lil.NNZ() != 2 {
		t.Fatalf("ToLIL mismatch: %v", lil)
	}
}

// Property: LIL and COO agree with a dense reference model under a
// random operation sequence.
func TestEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lil, coo := NewLIL(), NewCOO()
		ref := map[[2]int]float64{}
		for i := 0; i < 300; i++ {
			r, c := rng.Intn(20), rng.Intn(20)
			v := float64(rng.Intn(5) - 2) // includes zero-deletes
			lil.Set(r, c, v)
			coo.Set(r, c, v)
			if v == 0 {
				delete(ref, [2]int{r, c})
			} else {
				ref[[2]int{r, c}] = v
			}
		}
		if lil.NNZ() != len(ref) || coo.NNZ() != len(ref) {
			return false
		}
		for k, v := range ref {
			if lil.Get(k[0], k[1]) != v || coo.Get(k[0], k[1]) != v {
				return false
			}
		}
		for r := 0; r < 20; r++ {
			lr, cr := lil.Row(r), coo.Row(r)
			if len(lr) != len(cr) {
				return false
			}
			for i := range lr {
				if lr[i].Col != cr[i].Col || lr[i].Val != cr[i].Val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRowAscendingProperty(t *testing.T) {
	f := func(cols []uint8) bool {
		for _, m := range implementations() {
			for _, c := range cols {
				m.Set(0, int(c), 1)
			}
			row := m.Row(0)
			for i := 1; i < len(row); i++ {
				if row[i-1].Col >= row[i].Col {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatrices(t *testing.T) {
	for _, m := range implementations() {
		if m.NNZ() != 0 || m.Rows() != 0 {
			t.Fatalf("%s: empty NNZ=%d Rows=%d", m.Name(), m.NNZ(), m.Rows())
		}
		if reflect.DeepEqual(m.Row(0), []Entry{{}}) {
			t.Fatal("empty row content")
		}
	}
}

// TestLILFromRows: rows cut from one backing array and capped to their
// own entries behave like rows built by Set, and growing one never
// writes into its neighbour.
func TestLILFromRows(t *testing.T) {
	backing := []Entry{{Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 4, Val: -1}, {Row: 2, Col: 0, Val: 1}}
	m := LILFromRows([][]Entry{backing[0:2:2], nil, backing[2:3:3]})
	want := NewLIL()
	for _, e := range backing {
		want.Set(e.Row, e.Col, e.Val)
	}
	same := func() {
		t.Helper()
		if m.NNZ() != want.NNZ() || m.Rows() != want.Rows() {
			t.Fatalf("nnz %d rows %d, want %d and %d", m.NNZ(), m.Rows(), want.NNZ(), want.Rows())
		}
		for r := 0; r < want.Rows(); r++ {
			if !reflect.DeepEqual(m.Row(r), want.Row(r)) {
				t.Fatalf("row %d = %v, want %v", r, m.Row(r), want.Row(r))
			}
		}
	}
	same()
	for _, mm := range []*LIL{m, want} {
		mm.Set(0, 2, 1) // grows row 0 in the middle
		mm.Set(0, 9, -1)
		mm.Set(1, 3, 1)
		mm.Set(0, 1, 0) // deletes
	}
	same()
}
