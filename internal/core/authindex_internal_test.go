package core

import (
	"context"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/xmlparse"
)

// TestAuthIndexFillInIndexSpace pins the index-space contract: a fill
// over a parsed document caches the selected element/attribute nodes as
// dense preorder indexes into the document's arena, and a repeat lookup
// is a hit on the same set.
func TestAuthIndexFillInIndexSpace(t *testing.T) {
	res := xmlparse.MustParse(`<a><b k="v">x</b><c><b/></c></a>`, xmlparse.Options{})
	a, err := authz.Parse(`<<*,*,*>,doc.xml://b,read,+,R>`)
	if err != nil {
		t.Fatal(err)
	}
	x := NewAuthIndex()
	set, hit, err := x.lookup(context.Background(), res.Doc, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup reported a hit")
	}
	if len(set) != 2 {
		t.Fatalf("//b selected %d nodes, want 2", len(set))
	}
	for _, i := range set {
		if got := res.Doc.ReadArena().Name(i); got != "b" {
			t.Fatalf("index %d names %q, want b", i, got)
		}
	}
	again, hit, err := x.lookup(context.Background(), res.Doc, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || &again[0] != &set[0] {
		t.Fatal("repeat lookup did not hit the cached set")
	}
}
