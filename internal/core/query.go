package core

import (
	"context"
	"fmt"
	"strconv"

	"xmlsec/internal/dom"
	"xmlsec/internal/xpath"
)

// Query evaluates an XPath expression against the view — not against
// the original document — so query answers are safe by construction:
// whatever a requester cannot see in the view, no query can select.
// This implements the paper's first "further work" item (Section 8),
// requests in the form of generic queries, with the obvious security
// semantics: query(doc) ≡ query(view(doc)).
//
// The expression is evaluated over the shared document's arena under
// the view's mask (xpath.Path.SelectArena): every axis step, predicate
// position and size, string-value, count() and id() sees only the
// view's nodes, so hidden content cannot influence the answer — for
// example //x[@secret='v'] cannot observe a masked attribute, and the
// character data withheld from an element kept as structure is not part
// of its string-value. The answer equals what evaluating over the
// materialized view tree would give (FuzzMaskedQueryParity pins this),
// without building that tree.
//
// The result is a node-set of dense preorder indexes into the view's
// document, in document order. The indexes address shared original
// nodes, which may have hidden children: read matches through Node or
// QueryResult, which copy only what the view shows.
func (v *View) Query(expr string) ([]int32, error) {
	return v.QueryCtx(context.Background(), expr)
}

// QueryCtx is Query under a request context: evaluation stops when ctx
// is done or the evaluation exceeds xpath.MaxVisits, and a traced
// context records it as an "xpath.eval" span.
func (v *View) QueryCtx(ctx context.Context, expr string) ([]int32, error) {
	p, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	return v.selectPath(ctx, p)
}

func (v *View) selectPath(ctx context.Context, p *xpath.Path) ([]int32, error) {
	if v.Empty() {
		return nil, nil
	}
	return p.SelectArena(ctx, v.Doc.ReadArena(), v.Mask)
}

// Node returns a detached copy of the view's node at index i (as Query
// returns them): the node with its subtree restricted to the view.
func (v *View) Node(i int32) *dom.Node {
	return v.Doc.ReadArena().Subtree(i, v.Mask)
}

// QueryResult wraps query matches as an XML document
// <result count="n" query="..."> with one <match> child per selected
// node (elements are embedded as markup; attributes and text become
// <match name="...">value</match>).
func (v *View) QueryResult(expr string) (*dom.Document, error) {
	return v.QueryResultCtx(context.Background(), expr)
}

// QueryResultCtx is QueryResult under a request context (see QueryCtx).
func (v *View) QueryResultCtx(ctx context.Context, expr string) (*dom.Document, error) {
	p, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	return v.QueryResultOf(ctx, p)
}

// QueryResultOf is QueryResultCtx for an already compiled expression,
// so a caller that vets the expression first compiles it only once.
// Before copying anything it sums the visible nodes every match would
// copy, and refuses an answer past xpath.MaxResultNodes with an error
// wrapping xpath.ErrResultSize: matches may nest, so a small node-set
// can still denote a quadratic copy.
func (v *View) QueryResultOf(ctx context.Context, p *xpath.Path) (*dom.Document, error) {
	idx, err := v.selectPath(ctx, p)
	if err != nil {
		return nil, err
	}
	if n := v.resultNodes(idx); n > xpath.MaxResultNodes {
		return nil, fmt.Errorf("%w: %d nodes, more than %d", xpath.ErrResultSize, n, xpath.MaxResultNodes)
	}
	doc := dom.NewDocument()
	root := dom.NewElement("result")
	root.SetAttr("query", p.Source())
	root.SetAttr("count", strconv.Itoa(len(idx)))
	if len(idx) > 0 {
		ar := v.Doc.ReadArena()
		for _, i := range idx {
			m := dom.NewElement("match")
			switch ar.Kind(i) {
			case dom.ElementNode:
				m.AppendChild(ar.Subtree(i, v.Mask))
			case dom.AttributeNode:
				m.SetAttr("name", ar.Name(i))
				m.AppendChild(dom.NewText(string(ar.RawData(i))))
			default:
				m.AppendChild(dom.NewText(string(ar.RawData(i))))
			}
			root.AppendChild(m)
		}
	}
	doc.SetDocumentElement(root)
	doc.Renumber()
	return doc, nil
}

// resultNodes returns how many view nodes QueryResultOf copies for the
// matches idx: an element's whole visible subtree — a popcount of the
// mask over its preorder interval — and one node for anything else.
// The sum stops early once past the bound.
func (v *View) resultNodes(idx []int32) int {
	ar := v.Doc.ReadArena()
	n := 0
	for _, i := range idx {
		if ar.Kind(i) == dom.ElementNode {
			n += v.Mask.CountRange(int(i), int(ar.SubtreeEnd(i)))
		} else {
			n++
		}
		if n > xpath.MaxResultNodes {
			break
		}
	}
	return n
}
