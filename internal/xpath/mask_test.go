package xpath

import (
	stdcontext "context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/trace"
)

// upwardClosedMask returns a random visibility mask over ar in which a
// node is visible only if its parent is — the shape every view mask has.
func upwardClosedMask(ar *dom.Arena, rng *rand.Rand) dom.Bitmask {
	mask := dom.NewBitmask(ar.Len())
	mask.Set(0)
	for i := int32(1); i < int32(ar.Len()); i++ {
		if mask.Get(int(ar.Parent(i))) && rng.Intn(4) != 0 {
			mask.Set(int(i))
		}
	}
	return mask
}

// TestSelectArenaMasked: evaluating under a mask must select exactly what
// the tree evaluator selects over the document the mask materializes
// (CloneMasked), mapped back to original indexes.
func TestSelectArenaMasked(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	ar := doc.ReadArena()
	exprs := []string{
		`//*`, `//node()`, `//@*`, `//text()`,
		`//project[2]`, `//project[last()]/name`, `(//project)[1]`,
		`//name/following::*`, `//data/preceding::node()[1]`,
		`//project/following-sibling::*`, `//misc/preceding-sibling::*[1]`,
		`//fund/ancestor::*`, `//*[. = 'seed']`, `//project[contains(., 'alpha')]`,
		`/lab[count(//*) > 5]`, `id('p1') | id('p2')`, `//*[@id]`,
		`//project[string-length(string()) > 4]`, `//text()/..`,
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		mask := upwardClosedMask(ar, rng)
		view := doc.CloneMasked(mask)
		var orig []int32 // orig[j]: the original index of the view's node j
		for i := int32(0); i < int32(ar.Len()); i++ {
			if mask.Get(int(i)) {
				orig = append(orig, i)
			}
		}
		for _, src := range exprs {
			p := MustCompile(src)
			got, err := p.SelectArena(stdcontext.Background(), ar, mask)
			if err != nil {
				t.Fatalf("SelectArena(%q): %v", src, err)
			}
			var want []int32
			for _, i := range treeOrders(t, p, view) {
				want = append(want, orig[i])
			}
			if !sameIndexSet(got, want) {
				t.Fatalf("round %d: SelectArena(%q) = %v, tree over the masked copy says %v", round, src, got, want)
			}
		}
	}
}

// TestSelectArenaBudget: quadratic queries over an 18k-node document run
// out of their node-visit budget instead of running to completion — a
// nested scan, and a node-set comparison whose pairs are all attribute
// spans — and each stop is charged to the request's cost card.
func TestSelectArenaBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 6000; i++ {
		b.WriteString(`<e a="1">t</e>`)
	}
	b.WriteString("</r>")
	doc := parityDoc(t, b.String())
	ar := doc.ReadArena()
	for _, src := range []string{`//*[count(//*) > 0]`, `/r[//e/@a != //e/@a]`} {
		ctx, rc := trace.Begin(stdcontext.Background(), nil, "budget", "", "")
		card := &rc.Cost
		_, err := MustCompile(src).SelectArena(ctx, ar, nil)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: err = %v, want ErrBudget", src, err)
		}
		if card.XPathBudgetStops != 1 || card.ArenaXPathEvals != 1 {
			t.Errorf("%s: cost card: %d budget stops over %d evaluations, want 1 over 1", src, card.XPathBudgetStops, card.ArenaXPathEvals)
		}
		rc.Release()
	}
	// A linear query over the same document stays well within budget.
	if _, err := MustCompile(`//e[@a = 1]`).SelectArena(stdcontext.Background(), ar, nil); err != nil {
		t.Fatalf("linear query: %v", err)
	}
}

// TestSelectArenaCancelled: a done context stops the evaluation with the
// context's error, charged to the request's cost card.
func TestSelectArenaCancelled(t *testing.T) {
	doc := parityDoc(t, arenaTestDoc)
	rctx, rc := trace.Begin(stdcontext.Background(), nil, "cancel", "", "")
	defer rc.Release()
	card := &rc.Cost
	ctx, cancel := stdcontext.WithCancel(rctx)
	cancel()
	_, err := MustCompile(`//*`).SelectArena(ctx, doc.ReadArena(), nil)
	if !errors.Is(err, stdcontext.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if card.XPathCancels != 1 {
		t.Errorf("cost card counts %d cancellations, want 1", card.XPathCancels)
	}
}

// TestCheckNodeSet pins the static check /query/ runs before any view
// is computed: exactly the expressions that are node-sets everywhere
// pass.
func TestCheckNodeSet(t *testing.T) {
	ok := []string{
		`//a`, `/`, `(//a)[1]`, `id('x')`, `id('x')/b`, `//a | //b`,
		`//a[count(b) > 1]`, `//a[name() = 'a']`, `(//a)[1]/b[sum(c) > 0]`,
	}
	bad := []string{
		`count(//*)`, `string(//title)`, `1+1`, `'s'`, `true()`, `-//a`,
		`//a = 'x'`, `count(1) | //a`, `1 | //a`, `//a[count(1)]`,
		`(1)[1]`, `('s')/a`, `//a[name('x') = '']`, `//a[sum(2) > 0]`,
	}
	for _, src := range ok {
		if err := MustCompile(src).CheckNodeSet(); err != nil {
			t.Errorf("CheckNodeSet(%q) = %v, want nil", src, err)
		}
	}
	for _, src := range bad {
		err := MustCompile(src).CheckNodeSet()
		var te *TypeError
		if !errors.As(err, &te) {
			t.Errorf("CheckNodeSet(%q) = %v, want a *TypeError", src, err)
		}
	}
}
