package update

import (
	"context"
	"fmt"

	"xmlsec/internal/dom"
)

// refResolve is the pointer-tree resolver Resolve replaced, kept
// verbatim (renamed) as the reference FuzzResolveParity holds the
// arena-native Resolve to: it maps each target index back to a tree
// node through a table of every node and runs the same checks over
// Node fields.
func refResolve(ctx context.Context, doc *dom.Document, s *Script, visible, writable func(int32) bool) (*Resolution, []OpError) {
	nodes := refNodeTable(doc)
	r := &refResolver{
		doc: doc, nodes: nodes, visible: visible, writable: writable,
		res: &Resolution{Targets: make([][]int32, len(s.Ops))},
	}
	var report []OpError
	for i := range s.Ops {
		if errs := r.resolveOp(ctx, i, &s.Ops[i]); len(errs) > 0 {
			report = append(report, errs...)
		}
	}
	if report != nil {
		return nil, report
	}
	return r.res, nil
}

// refNodeTable maps dense preorder indexes back to tree nodes.
func refNodeTable(doc *dom.Document) []*dom.Node {
	nodes := make([]*dom.Node, doc.NodeCount())
	doc.Walk(func(n *dom.Node) bool {
		if n.Order >= 0 && n.Order < len(nodes) {
			nodes[n.Order] = n
		}
		return true
	})
	return nodes
}

type refResolver struct {
	doc      *dom.Document
	nodes    []*dom.Node
	visible  func(int32) bool
	writable func(int32) bool
	res      *Resolution
}

func (r *refResolver) resolveOp(ctx context.Context, i int, op *Op) []OpError {
	fail := func(class, format string, args ...any) []OpError {
		return []OpError{{Op: i, Kind: op.Kind, Class: class, Reason: fmt.Sprintf(format, args...)}}
	}
	if op.path == nil {
		return fail(ClassInvalid, "script not validated")
	}
	idx, _, err := op.path.SelectIndexesCtx(ctx, r.doc)
	if err != nil {
		return fail(ClassInvalid, "target %s: %v", op.Target, err)
	}
	// The read-mask intersection: invisible targets drop silently, so
	// an operation aimed at protected content fails identically to one
	// aimed at nothing.
	vis := idx[:0]
	for _, t := range idx {
		if r.visible(t) {
			vis = append(vis, t)
		}
	}
	if len(vis) == 0 {
		return fail(ClassConflict, "target %s selects nothing", op.Target)
	}
	var errs []OpError
	for _, t := range vis {
		n := r.nodes[t]
		if n == nil {
			return fail(ClassInvalid, "target %s selects an unindexed node", op.Target)
		}
		if e := r.checkTarget(i, op, t, n); e != nil {
			errs = append(errs, *e)
		}
	}
	if errs != nil {
		return errs
	}
	r.res.Targets[i] = vis
	return nil
}

// checkTarget applies one operation's authority mapping to one target.
func (r *refResolver) checkTarget(i int, op *Op, t int32, n *dom.Node) *OpError {
	fail := func(class, format string, args ...any) *OpError {
		return &OpError{Op: i, Kind: op.Kind, Class: class, Reason: fmt.Sprintf(format, args...)}
	}
	canWrite := func(m *dom.Node) bool {
		r.res.TargetsChecked++
		return r.writable(int32(m.Order))
	}
	switch op.Kind {
	case OpInsertInto:
		if n.Type != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", n.Path())
		}
		if !canWrite(n) {
			return fail(ClassForbidden, "no write authority on %s (insert)", n.Path())
		}
	case OpInsertBefore, OpInsertAfter:
		if n.Type != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", n.Path())
		}
		if n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return fail(ClassConflict, "cannot insert beside the document element")
		}
		if !canWrite(n.Parent) {
			return fail(ClassForbidden, "no write authority on %s (insert)", n.Parent.Path())
		}
	case OpDelete:
		switch n.Type {
		case dom.AttributeNode:
			if !canWrite(n) {
				return fail(ClassForbidden, "no write authority on %s (delete)", n.Path())
			}
		case dom.ElementNode:
			if n.Parent == nil || n.Parent.Type != dom.ElementNode {
				return fail(ClassConflict, "cannot delete the document element")
			}
			if !r.deletable(n) {
				return fail(ClassForbidden, "no write authority on %s (delete)", n.Path())
			}
		default:
			return fail(ClassConflict, "%s is not an element or attribute", n.Path())
		}
	case OpReplaceNode:
		if n.Type != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", n.Path())
		}
		if n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return fail(ClassConflict, "cannot replace the document element")
		}
		if !r.deletable(n) || !canWrite(n.Parent) {
			return fail(ClassForbidden, "no write authority on %s (replace)", n.Path())
		}
	case OpReplaceText:
		if n.Type != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", n.Path())
		}
		// The edit rewrites the element's direct content, so the
		// requester must have been shown all of it — hidden character
		// data or hidden element children forbid the edit (the same
		// guard the whole-document merge applies).
		for _, c := range n.Children {
			if !r.visible(int32(c.Order)) {
				return fail(ClassForbidden, "content of %s is not fully readable", n.Path())
			}
		}
		if !canWrite(n) {
			return fail(ClassForbidden, "no write authority on %s (content edit)", n.Path())
		}
	case OpSetAttr:
		if n.Type != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", n.Path())
		}
		if a := n.AttrNode(op.Name); a != nil {
			// Existing attribute: writable or refused — and an
			// invisible attribute refuses with the same words, so the
			// write path confirms nothing the view withheld.
			if !r.visible(int32(a.Order)) || !canWrite(a) {
				return fail(ClassForbidden, "cannot set @%s on %s", op.Name, n.Path())
			}
		} else if !canWrite(n) {
			return fail(ClassForbidden, "cannot set @%s on %s", op.Name, n.Path())
		}
	default:
		return fail(ClassInvalid, "unknown operation")
	}
	return nil
}

// deletable mirrors core.MergeView's rule: removing an element needs
// write authority over every element and attribute of its subtree,
// visible or not.
func (r *refResolver) deletable(n *dom.Node) bool {
	r.res.TargetsChecked++
	if !r.writable(int32(n.Order)) {
		return false
	}
	for _, a := range n.Attrs {
		r.res.TargetsChecked++
		if !r.writable(int32(a.Order)) {
			return false
		}
	}
	for _, c := range n.Children {
		if c.Type == dom.ElementNode && !r.deletable(c) {
			return false
		}
	}
	return true
}
