package update

import (
	"fmt"

	"xmlsec/internal/dom"
)

// ConflictError reports a structural conflict discovered while
// applying a resolved script: a target that an earlier operation
// removed from the document, or recorded targets that no longer fit
// the document's shape. The server maps it to HTTP 409.
type ConflictError struct {
	// Op is the conflicting operation's position in the script.
	Op int
	// Reason describes the conflict.
	Reason string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("update: op %d conflicts: %s", e.Op, e.Reason)
}

// Apply executes a script whose targets were already resolved (by
// Resolve, or recorded in a write-ahead-log delta record) against a
// fresh copy of doc, and returns the updated document together with
// the number of nodes copied for it (the copy-on-write cost: the
// copied document plus every inserted fragment node). The copy is one
// Materialize of doc's arena, which also hands back each copied node by
// its arena index, the address space the targets are in.
//
// Apply is purely structural — it consults no authorization state and
// no clock, so the same (document, script, targets) triple always
// produces byte-identical output. That determinism is the delta
// record's replay contract. doc itself is never modified; old readers
// keep the old generation.
//
// Targets are indexes into doc's pre-update numbering; all operations
// address that snapshot, and apply in script order. An operation whose
// target an earlier operation detached fails with a *ConflictError and
// nothing is returned — atomicity is the caller's commit discipline
// (nothing observed the copy).
func Apply(doc *dom.Document, s *Script, targets [][]int32) (*dom.Document, int, error) {
	if len(targets) != len(s.Ops) {
		return nil, 0, fmt.Errorf("update: %d target sets for %d operations", len(targets), len(s.Ops))
	}
	out, nodes := doc.ReadArena().MaterializeNodes()
	copied := out.NodeCount()
	for i := range s.Ops {
		op := &s.Ops[i]
		for _, t := range targets[i] {
			if int(t) < 0 || int(t) >= len(nodes) {
				return nil, 0, &ConflictError{Op: i, Reason: fmt.Sprintf("target index %d out of range", t)}
			}
			n := &nodes[t]
			if !attached(out, n) {
				return nil, 0, &ConflictError{Op: i, Reason: fmt.Sprintf("target %s was removed by an earlier operation", op.Target)}
			}
			c, err := applyOne(i, op, n)
			if err != nil {
				return nil, 0, err
			}
			copied += c
		}
	}
	out.Renumber()
	return out, copied, nil
}

// attached reports whether n is still reachable from the document
// node — operations detach subtrees, and a later operation must not
// edit into the void.
func attached(doc *dom.Document, n *dom.Node) bool {
	for m := n; m != nil; m = m.Parent {
		if m == doc.Node {
			return true
		}
	}
	return false
}

// applyOne executes op against one target node of the copy, returning
// how many nodes it inserted.
func applyOne(i int, op *Op, n *dom.Node) (int, error) {
	conflict := func(format string, args ...any) error {
		return &ConflictError{Op: i, Reason: fmt.Sprintf(format, args...)}
	}
	switch op.Kind {
	case OpInsertInto:
		if n.Type != dom.ElementNode {
			return 0, conflict("%s is not an element", n.Path())
		}
		copied := 0
		for _, f := range op.frag {
			c := f.Clone()
			copied += countNodes(c)
			n.AppendChild(c)
		}
		return copied, nil
	case OpInsertBefore, OpInsertAfter:
		if n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return 0, conflict("cannot insert beside the document element")
		}
		frag := make([]*dom.Node, len(op.frag))
		copied := 0
		for j, f := range op.frag {
			frag[j] = f.Clone()
			copied += countNodes(frag[j])
		}
		if err := spliceSiblings(n, frag, op.Kind == OpInsertAfter); err != nil {
			return 0, conflict("%v", err)
		}
		return copied, nil
	case OpDelete:
		switch n.Type {
		case dom.AttributeNode:
			if n.Parent == nil || !n.Parent.RemoveAttr(n.Name) {
				return 0, conflict("attribute %s already removed", n.Path())
			}
		case dom.ElementNode:
			if n.Parent == nil || !n.Parent.RemoveChild(n) {
				return 0, conflict("%s already removed", n.Path())
			}
		default:
			return 0, conflict("%s is not an element or attribute", n.Path())
		}
		return 0, nil
	case OpReplaceNode:
		if n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return 0, conflict("cannot replace the document element")
		}
		repl := op.frag[0].Clone()
		if err := spliceSiblings(n, []*dom.Node{repl}, false); err != nil {
			return 0, conflict("%v", err)
		}
		n.Parent.RemoveChild(n)
		return countNodes(repl), nil
	case OpReplaceText:
		if n.Type != dom.ElementNode {
			return 0, conflict("%s is not an element", n.Path())
		}
		kept := n.Children[:0:0]
		for _, c := range n.Children {
			if c.Type == dom.TextNode || c.Type == dom.CDATANode {
				c.Parent = nil
				continue
			}
			kept = append(kept, c)
		}
		n.Children = kept
		if op.Text != "" {
			// The replacement text leads the element's remaining
			// children — the normalized content order the
			// whole-document merge also produces.
			t := dom.NewText(op.Text)
			t.Parent = n
			n.Children = append([]*dom.Node{t}, n.Children...)
			return 1, nil
		}
		return 0, nil
	case OpSetAttr:
		if n.Type != dom.ElementNode {
			return 0, conflict("%s is not an element", n.Path())
		}
		n.SetAttr(op.Name, op.Value)
		return 0, nil
	}
	return 0, conflict("unknown operation %q", op.Kind)
}

// spliceSiblings inserts frag into n's parent immediately before (or
// after) n, wiring parents.
func spliceSiblings(n *dom.Node, frag []*dom.Node, after bool) error {
	p := n.Parent
	at := -1
	for j, c := range p.Children {
		if c == n {
			at = j
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("%s not among its parent's children", n.Path())
	}
	if after {
		at++
	}
	for _, f := range frag {
		f.Parent = p
	}
	kids := make([]*dom.Node, 0, len(p.Children)+len(frag))
	kids = append(kids, p.Children[:at]...)
	kids = append(kids, frag...)
	kids = append(kids, p.Children[at:]...)
	p.Children = kids
	return nil
}

// countNodes counts the nodes of a fragment subtree (elements,
// attributes, and character data alike) for the copy accounting.
func countNodes(n *dom.Node) int {
	c := 1 + len(n.Attrs)
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}
