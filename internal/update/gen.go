package update

import (
	"fmt"
	"math/rand"
	"strings"

	"xmlsec/internal/dom"
)

// RandomScript generates a random, structurally valid update script
// for doc: every target is an absolute name path that selects exactly
// one element, operations never aim inside a subtree an earlier
// operation of the same script removes, and inserted elements carry
// fresh names. Scripts of this shape apply cleanly through both write
// paths — the delta apply and the whole-document write-through-views
// merge — which is exactly what the differential oracle and the
// mixed read/write benchmark need: the two paths must agree on every
// generated script, so the generator lives here, not in a test file.
//
// The generator is deterministic in rng and doc; it returns nil when
// doc offers no usable targets. It reads doc's tree through ReadTree.
func RandomScript(rng *rand.Rand, doc *dom.Document, nops int) *Script {
	cands := candidates(doc.ReadTree())
	if len(cands) == 0 || nops <= 0 {
		return nil
	}
	deleted := make(map[*dom.Node]bool)
	// attrGone tracks attributes a previous operation deleted: deleting
	// one twice is an apply-time conflict, and re-adding one would land
	// it at a different position than the whole-document merge keeps it.
	attrGone := make(map[*dom.Node]map[string]bool)
	detached := func(n *dom.Node) bool {
		for m := n; m != nil; m = m.Parent {
			if deleted[m] {
				return true
			}
		}
		return false
	}
	s := &Script{}
	fresh := 0
	freshName := func() string {
		fresh++
		return fmt.Sprintf("u%dw%d", fresh, rng.Intn(100))
	}
	for attempts := 0; len(s.Ops) < nops && attempts < nops*20; attempts++ {
		c := cands[rng.Intn(len(cands))]
		if detached(c.n) {
			continue
		}
		isRoot := c.n.Parent == nil || c.n.Parent.Type != dom.ElementNode
		leaf := len(c.n.ChildElements()) == 0
		switch rng.Intn(7) {
		case 0: // set an existing attribute to a new value
			if len(c.n.Attrs) == 0 {
				continue
			}
			a := c.n.Attrs[rng.Intn(len(c.n.Attrs))]
			if attrGone[c.n][a.Name] {
				continue
			}
			s.Ops = append(s.Ops, Op{Kind: OpSetAttr, Target: c.path,
				Name: a.Name, Value: fmt.Sprintf("v%d", rng.Intn(1000))})
		case 1: // add a fresh attribute
			s.Ops = append(s.Ops, Op{Kind: OpSetAttr, Target: c.path,
				Name: freshName(), Value: fmt.Sprintf("v%d", rng.Intn(1000))})
		case 2: // replace a leaf's text
			if !leaf {
				continue
			}
			s.Ops = append(s.Ops, Op{Kind: OpReplaceText, Target: c.path,
				Text: fmt.Sprintf("t%d", rng.Intn(1000))})
		case 3: // append a fresh element
			name := freshName()
			s.Ops = append(s.Ops, Op{Kind: OpInsertInto, Target: c.path,
				XML: fmt.Sprintf("<%s>x%d</%s>", name, rng.Intn(100), name)})
		case 4: // insert a fresh element beside the target
			if isRoot {
				continue
			}
			kind := OpInsertBefore
			if rng.Intn(2) == 1 {
				kind = OpInsertAfter
			}
			name := freshName()
			s.Ops = append(s.Ops, Op{Kind: kind, Target: c.path,
				XML: fmt.Sprintf("<%s/>", name)})
		case 5: // delete the target subtree or an attribute
			if isRoot {
				continue
			}
			if len(c.n.Attrs) > 0 && rng.Intn(2) == 1 {
				a := c.n.Attrs[rng.Intn(len(c.n.Attrs))]
				if attrGone[c.n][a.Name] {
					continue
				}
				if attrGone[c.n] == nil {
					attrGone[c.n] = make(map[string]bool)
				}
				attrGone[c.n][a.Name] = true
				s.Ops = append(s.Ops, Op{Kind: OpDelete, Target: c.path + "/@" + a.Name})
				continue
			}
			s.Ops = append(s.Ops, Op{Kind: OpDelete, Target: c.path})
			deleted[c.n] = true
		case 6: // replace the target with a fresh element
			if isRoot {
				continue
			}
			name := freshName()
			s.Ops = append(s.Ops, Op{Kind: OpReplaceNode, Target: c.path,
				XML: fmt.Sprintf("<%s>r%d</%s>", name, rng.Intn(100), name)})
			deleted[c.n] = true
		}
	}
	if len(s.Ops) == 0 {
		return nil
	}
	if err := s.Validate(); err != nil {
		// The generator only emits shapes Validate accepts.
		panic("update: generated invalid script: " + err.Error())
	}
	return s
}

type cand struct {
	n    *dom.Node
	path string
}

// candidates lists the elements an absolute name path addresses
// unambiguously: at every step the element's name is unique among its
// siblings, so /a/b/c selects exactly one node.
func candidates(doc *dom.Document) []cand {
	root := doc.DocumentElement()
	if root == nil {
		return nil
	}
	var out []cand
	var walk func(n *dom.Node, segs []string)
	walk = func(n *dom.Node, segs []string) {
		out = append(out, cand{n: n, path: "/" + strings.Join(segs, "/")})
		names := make(map[string]int)
		for _, c := range n.ChildElements() {
			names[c.Name]++
		}
		for _, c := range n.ChildElements() {
			if names[c.Name] != 1 {
				continue
			}
			walk(c, append(segs[:len(segs):len(segs)], c.Name))
		}
	}
	walk(root, []string{root.Name})
	return out
}
