package kbase

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustSchema(t *testing.T, name string, cols ...string) Schema {
	t.Helper()
	s, err := NewSchema(name, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchema(t *testing.T) {
	s := mustSchema(t, "HasCollectorCurrent", "part", "current:varchar", "max_ma:float", "page:int")
	if s.Arity() != 4 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Columns[0].Type != StringCol || s.Columns[2].Type != FloatCol || s.Columns[3].Type != IntCol {
		t.Fatalf("types = %+v", s.Columns)
	}
	if s.ColIndex("current") != 1 || s.ColIndex("nope") != -1 {
		t.Fatal("ColIndex")
	}
	sql := s.SQL()
	if !strings.Contains(sql, "CREATE TABLE HasCollectorCurrent") || !strings.Contains(sql, "part varchar") {
		t.Fatalf("SQL = %s", sql)
	}
}

func TestNewSchemaErrors(t *testing.T) {
	cases := [][]string{
		nil,         // no columns
		{"a:bogus"}, // unknown type
		{"a", "a"},  // duplicate
		{""},        // empty name
	}
	for _, cols := range cases {
		if _, err := NewSchema("r", cols...); err == nil {
			t.Errorf("NewSchema(r, %v) should error", cols)
		}
	}
	if _, err := NewSchema("", "a"); err == nil {
		t.Error("empty relation name should error")
	}
}

func TestInsertAndDuplicates(t *testing.T) {
	tbl := NewTable(mustSchema(t, "r", "part", "current"))
	added, err := tbl.Insert(Tuple{"SMBT3904", "200mA"})
	if err != nil || !added {
		t.Fatalf("first insert: %v %v", added, err)
	}
	added, err = tbl.Insert(Tuple{"SMBT3904", "200mA"})
	if err != nil || added {
		t.Fatalf("duplicate insert: %v %v", added, err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if !tbl.Contains(Tuple{"SMBT3904", "200mA"}) {
		t.Fatal("Contains")
	}
	if tbl.Contains(Tuple{"SMBT3904"}) {
		t.Fatal("arity mismatch Contains must be false")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tbl := NewTable(mustSchema(t, "r", "name", "count:int", "score:float"))
	if _, err := tbl.Insert(Tuple{"a", 1, 0.5}); err != nil {
		t.Fatalf("int should coerce to int64: %v", err)
	}
	if _, err := tbl.Insert(Tuple{"a", int64(2), 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Tuple{"a", "x", 0.5}); err == nil {
		t.Fatal("string into int column should error")
	}
	if _, err := tbl.Insert(Tuple{"a", 1}); err == nil {
		t.Fatal("arity error expected")
	}
	if _, err := tbl.Insert(Tuple{"a", 1, 1}); err == nil {
		t.Fatal("int into float column should error")
	}
}

func TestScanSelect(t *testing.T) {
	tbl := NewTable(mustSchema(t, "r", "part", "current"))
	parts := []string{"A", "B", "C"}
	for _, p := range parts {
		if _, err := tbl.Insert(Tuple{p, "200"}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	tbl.Scan(func(tp Tuple) bool {
		seen = append(seen, tp[0].(string))
		return len(seen) < 2
	})
	if len(seen) != 2 {
		t.Fatalf("early-stop scan saw %v", seen)
	}
	cp := tbl.Tuples()
	cp[0] = Tuple{"X", "Y"}
	if tbl.Tuples()[0][0] != "A" {
		t.Fatal("Tuples must copy")
	}
}

// TestReadPathsDetached is the aliasing regression test: tuples handed
// out by Tuples, Select and Page must not alias table storage, so a
// reader mutating its copy (or holding it across table mutations) can
// never corrupt the relation. Scan remains the documented zero-copy
// borrow; Tuple.Clone detaches a borrowed row.
func TestReadPathsDetached(t *testing.T) {
	tbl := NewTable(mustSchema(t, "r", "part", "current:integer"))
	for i, p := range []string{"A", "B", "C"} {
		if _, err := tbl.Insert(Tuple{p, i}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, rows []Tuple) {
		t.Helper()
		for _, tp := range rows {
			tp[0] = "corrupted"
			tp[1] = int64(999)
		}
		want := []string{"A", "B", "C"}
		for i, tp := range tbl.Tuples() {
			if tp[0] != want[i] || tp[1] != int64(i) {
				t.Fatalf("%s aliased table storage: row %d = %v", name, i, tp)
			}
		}
		if !tbl.Contains(Tuple{"A", 0}) {
			t.Fatalf("%s corrupted the table index", name)
		}
	}
	check("Tuples", tbl.Tuples())
	check("Page", tbl.Page(0, 3))

	// Scan borrows; Clone detaches the borrow.
	var held Tuple
	tbl.Scan(func(tp Tuple) bool {
		held = tp.Clone()
		return false
	})
	held[0] = "mine"
	if tbl.Tuples()[0][0] != "A" {
		t.Fatal("Tuple.Clone must detach from table storage")
	}

	// Page bounds.
	if got := tbl.Page(1, 1); len(got) != 1 || got[0][0] != "B" {
		t.Fatalf("Page(1,1) = %v", got)
	}
	if got := tbl.Page(2, 0); len(got) != 1 || got[0][0] != "C" {
		t.Fatalf("Page(2,0) = %v", got)
	}
	if got := tbl.Page(5, 2); got != nil {
		t.Fatalf("Page past end = %v", got)
	}
	if got := tbl.Page(-3, 2); len(got) != 2 || got[0][0] != "A" {
		t.Fatalf("Page(-3,2) = %v", got)
	}
	// A huge limit must not overflow offset+limit into a negative
	// bound (clients control both parameters on the serving layer).
	if got := tbl.Page(1, math.MaxInt); len(got) != 2 || got[0][0] != "B" {
		t.Fatalf("Page(1,MaxInt) = %v", got)
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	s := mustSchema(t, "r1", "a")
	if _, err := db.Create(s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(s); err == nil {
		t.Fatal("duplicate create should error")
	}
	if db.Table("r1") == nil || db.Table("nope") != nil {
		t.Fatal("Table lookup")
	}
	s2 := mustSchema(t, "a2", "x")
	if _, err := db.Create(s2); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "a2" || names[1] != "r1" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCompare(t *testing.T) {
	s := mustSchema(t, "r", "part", "current")
	ref := NewTable(s)
	got := NewTable(s)
	for _, p := range []string{"A", "B", "C", "D"} {
		if _, err := ref.Insert(Tuple{p, "1"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"B", "C", "E"} {
		if _, err := got.Insert(Tuple{p, "1"}); err != nil {
			t.Fatal(err)
		}
	}
	c := Compare(got, ref)
	if c.Overlap != 2 || c.NewEntries != 1 {
		t.Fatalf("comparison = %+v", c)
	}
	if c.Coverage != 0.5 {
		t.Fatalf("coverage = %v", c.Coverage)
	}
	empty := NewTable(s)
	c = Compare(got, empty)
	if c.Coverage != 0 {
		t.Fatalf("empty-ref coverage = %v", c.Coverage)
	}
}

// Property: inserting any set of tuples yields Len equal to the number
// of distinct tuples, and Contains holds for each.
func TestInsertSetSemanticsProperty(t *testing.T) {
	s := mustSchema(t, "r", "a", "b")
	f := func(pairs [][2]string) bool {
		tbl := NewTable(s)
		distinct := map[[2]string]bool{}
		for _, p := range pairs {
			if _, err := tbl.Insert(Tuple{p[0], p[1]}); err != nil {
				return false
			}
			distinct[p] = true
		}
		if tbl.Len() != len(distinct) {
			return false
		}
		for p := range distinct {
			if !tbl.Contains(Tuple{p[0], p[1]}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestColTypeString(t *testing.T) {
	if StringCol.String() != "varchar" || IntCol.String() != "integer" || FloatCol.String() != "float" {
		t.Fatal("type names")
	}
	if ColType(9).String() != "coltype(9)" {
		t.Fatal("unknown type name")
	}
}
