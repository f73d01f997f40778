package core

import (
	"context"
	"fmt"
	"io"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
)

// Explanation reports, for one node, its final label, the full
// 6-tuple after propagation, and the authorizations that name the node
// directly — the provenance an administrator needs to answer "why can
// (or can't) this requester see this element".
type Explanation struct {
	// Node is the explained node.
	Node *dom.Node
	// Label is the node's propagated label.
	Label *Label
	// Direct lists the applicable authorizations whose object selects
	// this node, i.e. the inputs of initial_label.
	Direct []*authz.Authorization
}

// Explain labels doc for the request and returns an explanation for
// every element and attribute, in document order.
func (e *Engine) Explain(req Request, doc *dom.Document) ([]Explanation, error) {
	lb, _, err := e.Label(req, doc)
	if err != nil {
		return nil, err
	}
	axml, adtd, err := e.applicable(req)
	if err != nil {
		return nil, err
	}
	direct := make(map[int][]*authz.Authorization)
	for _, a := range append(append([]*authz.Authorization{}, axml...), adtd...) {
		idx, err := a.SelectIndexesCtx(context.Background(), doc)
		if err != nil {
			return nil, err
		}
		for _, i := range idx {
			direct[int(i)] = append(direct[int(i)], a)
		}
	}
	var out []Explanation
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode || n.Type == dom.AttributeNode {
			out = append(out, Explanation{Node: n, Label: lb.Of(n), Direct: direct[n.Index()]})
		}
		return true
	})
	return out, nil
}

// WriteExplanation renders explanations as an aligned text table with
// one row per node, followed by the directly applicable authorizations.
func WriteExplanation(w io.Writer, exps []Explanation) error {
	ew := &errW{w: w}
	fmt.Fprintf(ew, "%-44s %-5s %-2s %-2s %-3s %-3s %-3s %-3s\n",
		"node", "final", "L", "R", "LD", "RD", "LW", "RW")
	for _, x := range exps {
		l := x.Label
		if l == nil {
			l = &Label{}
		}
		fmt.Fprintf(ew, "%-44s %-5s %-2s %-2s %-3s %-3s %-3s %-3s\n",
			x.Node.Path(), l.Final, l.L, l.R, l.LD, l.RD, l.LW, l.RW)
		for _, a := range x.Direct {
			fmt.Fprintf(ew, "%-44s   <- %s\n", "", a)
		}
	}
	return ew.err
}

type errW struct {
	w   io.Writer
	err error
}

func (e *errW) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
