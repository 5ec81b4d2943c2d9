package features

import (
	"fmt"
	"reflect"
	"testing"
)

func TestIndexLookupAndNames(t *testing.T) {
	ix := NewIndex()
	ix.ID("b")
	ix.ID("a")
	if id, ok := ix.Lookup("b"); !ok || id != 0 {
		t.Fatalf("Lookup(b) = %d,%v", id, ok)
	}
	if _, ok := ix.Lookup("zzz"); ok {
		t.Fatal("Lookup must not allocate")
	}
	if ix.Len() != 2 {
		t.Fatalf("Lookup allocated: len = %d", ix.Len())
	}
	if names := ix.NamesView(); !reflect.DeepEqual(names, []string{"b", "a"}) {
		t.Fatalf("NamesView = %v", names)
	}
	if ix.Name(1) != "a" || ix.Name(2) != "" {
		t.Fatalf("Name(1), Name(2) = %q, %q", ix.Name(1), ix.Name(2))
	}
}

// TestIndexNamesView: the view is a fixed prefix of an append-only
// list, so it neither changes nor grows while the index does — across
// many reallocations of the list.
func TestIndexNamesView(t *testing.T) {
	ix := NewIndex()
	ix.ID("b")
	ix.ID("a")
	view := ix.NamesView()
	for i := 0; i < 1000; i++ {
		ix.ID(fmt.Sprint("later-", i))
	}
	if !reflect.DeepEqual(view, []string{"b", "a"}) || cap(view) != 2 {
		t.Fatalf("view = %v (cap %d) after the index grew to %d", view, cap(view), ix.Len())
	}
	if v := ix.NamesView(); len(v) != ix.Len() || v[0] != "b" || v[1001] != "later-999" {
		t.Fatalf("a fresh view has %d names", len(v))
	}
	if NewIndex().NamesView() != nil {
		t.Fatal("an empty index has an empty view")
	}
}
