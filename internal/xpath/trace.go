package xpath

// The stdlib import is aliased because this package's evaluation state
// type is itself named context.
import (
	stdcontext "context"
	"errors"

	"xmlsec/internal/dom"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
)

// SelectDocCtx is SelectDoc with per-request tracing: when ctx carries
// a trace, the evaluation is recorded as an "xpath.eval" span
// annotated with the expression source and the result cardinality.
// With an untraced context it is exactly SelectDoc — no allocation, no
// lock.
func (p *Path) SelectDocCtx(ctx stdcontext.Context, doc *dom.Document) ([]*dom.Node, error) {
	if card := trace.CostFromContext(ctx); card != nil {
		card.TreeXPathEvals++
	}
	sp := trace.StartChild(ctx, "xpath.eval")
	if sp == nil {
		return p.SelectDoc(doc)
	}
	nodes, err := p.SelectDoc(doc)
	if err != nil {
		sp.Lazyf("%s: %v", p.src, err)
	} else {
		sp.Lazyf("%s -> %d nodes", p.src, len(nodes))
	}
	sp.End()
	return nodes, err
}

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
	if card := trace.CostFromContext(ctx); card != nil {
		card.ArenaXPathEvals++
		countStop(card, err)
	}
	if sp != nil {
		if err != nil {
			sp.Lazyf("%s [arena]: %v", p.src, err)
		} else {
			sp.Lazyf("%s [arena] -> %d nodes", p.src, len(idx))
		}
		sp.End()
	}
	return idx, err
}

// countStop charges an evaluation that ran out of budget or was
// cancelled to the request's cost card.
func countStop(card *obs.CostCard, err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrBudget):
		card.XPathBudgetStops++
	case errors.Is(err, stdcontext.Canceled), errors.Is(err, stdcontext.DeadlineExceeded):
		card.XPathCancels++
	}
}

// SelectIndexesCtx is SelectIndexes with per-request tracing: the
// "xpath.eval" span records the expression, the result cardinality and
// which evaluator ran (arena or tree). The node-sets it returns feed
// shared caches (the authorization node-set index), so the evaluation is
// bounded by MaxVisits but never cancelled by ctx: one request giving up
// must not fail a fill other requests wait on.
func (p *Path) SelectIndexesCtx(ctx stdcontext.Context, doc *dom.Document) ([]int32, bool, error) {
	card := trace.CostFromContext(ctx)
	sp := trace.StartChild(ctx, "xpath.eval")
	idx, viaArena, err := p.SelectIndexes(doc)
	if card != nil {
		if viaArena {
			card.ArenaXPathEvals++
		} else {
			card.TreeXPathEvals++
		}
		countStop(card, err)
	}
	if sp == nil {
		return idx, viaArena, err
	}
	route := "tree"
	if viaArena {
		route = "arena"
	}
	if err != nil {
		sp.Lazyf("%s [%s]: %v", p.src, route, err)
	} else {
		sp.Lazyf("%s [%s] -> %d nodes", p.src, route, len(idx))
	}
	sp.End()
	return idx, viaArena, err
}
