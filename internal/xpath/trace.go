package xpath

// The stdlib import is aliased because this package's evaluation state
// type is itself named context.
import (
	stdcontext "context"
	"errors"

	"xmlsec/internal/dom"
	"xmlsec/internal/trace"
)

// SelectArena evaluates the expression over the arena with the document
// node (index 0) as context, restricted to the mask-visible nodes when
// mask is non-nil, and returns the selected node-set as dense preorder
// indexes in document order with no duplicates. The answer equals the
// pointer-tree evaluator's over the document the mask materializes; the
// mask must be upward-closed (a visible node's parent is visible), as
// every view mask is. The evaluation stops with an error wrapping
// ErrBudget past MaxVisits node visits, or wrapping ctx.Err() once ctx
// is done. A traced ctx records an "xpath.eval" span, and a cost card in
// ctx counts the evaluation and any stop.
func (p *Path) SelectArena(ctx stdcontext.Context, ar *dom.Arena, mask dom.Bitmask) ([]int32, error) {
	sp := trace.StartChild(ctx, "xpath.eval")
	idx, err := p.selectArena(ctx, ar, mask)
	p.observe(ctx, sp, len(idx), err)
	return idx, err
}

// SelectIndexesCtx is SelectIndexes with per-request tracing: the
// "xpath.eval" span records the expression and the result cardinality.
// The node-sets it returns feed shared caches (the authorization
// node-set index), so the evaluation is bounded by MaxVisits but never
// cancelled by ctx: one request giving up must not fail a fill other
// requests wait on.
func (p *Path) SelectIndexesCtx(ctx stdcontext.Context, doc *dom.Document) ([]int32, bool, error) {
	sp := trace.StartChild(ctx, "xpath.eval")
	idx, viaArena, err := p.SelectIndexes(doc)
	p.observe(ctx, sp, len(idx), err)
	return idx, viaArena, err
}

// observe charges one finished evaluation — and a stop for running out
// of budget or being cancelled — to the request's cost card, and closes
// its span (nil when untraced) with the expression and the outcome.
func (p *Path) observe(ctx stdcontext.Context, sp *trace.Span, n int, err error) {
	if card := trace.CostFromContext(ctx); card != nil {
		card.ArenaXPathEvals++
		switch {
		case err == nil:
		case errors.Is(err, ErrBudget):
			card.XPathBudgetStops++
		case errors.Is(err, stdcontext.Canceled), errors.Is(err, stdcontext.DeadlineExceeded):
			card.XPathCancels++
		}
	}
	if sp != nil {
		if err != nil {
			sp.Lazyf("%s: %v", p.src, err)
		} else {
			sp.Lazyf("%s -> %d nodes", p.src, n)
		}
		sp.End()
	}
}
