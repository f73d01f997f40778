package core

import (
	"math"
	"slices"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
)

// Sign is a tri-state authorization sign: Plus, Minus, or Epsilon (no
// authorization).
type Sign byte

// The three label values of the paper's tree-labeling process.
const (
	Epsilon Sign = 0
	Plus    Sign = '+'
	Minus   Sign = '-'
)

// String renders the sign; Epsilon prints as the empty-set mark "ε".
func (s Sign) String() string {
	if s == Epsilon {
		return "ε"
	}
	return string(byte(s))
}

// fromAuthz converts an authorization sign.
func fromAuthz(s authz.Sign) Sign {
	if s == authz.Permit {
		return Plus
	}
	return Minus
}

// FirstDef returns the first sign in the sequence different from ε
// (the paper's first_def function); ε if all are ε.
func FirstDef(signs ...Sign) Sign {
	for _, s := range signs {
		if s != Epsilon {
			return s
		}
	}
	return Epsilon
}

// Label is the authorization state of one node during and after the
// tree-labeling process.
//
// The published algorithm destructively folds the final sign into L; we
// keep the six slots with their propagation semantics and record the
// outcome in Final, so that callers (tests, the xsview CLI's --explain
// mode) can inspect the full labeling.
type Label struct {
	// L and R are the instance-level Local and Recursive signs. After
	// propagation, R holds the recursive sign in force at the node
	// (own or inherited from the closest ancestor with one).
	L, R Sign
	// LD and RD are the schema-level Local and Recursive signs; RD is
	// propagated like R.
	LD, RD Sign
	// LW and RW are the weak instance-level signs; RW is propagated
	// like R.
	LW, RW Sign
	// Final is the winning sign for the node:
	// first_def(L, R, LD, RD, LW, RW) with the tuple's propagated
	// values, i.e. instance-strong, then schema, then weak.
	Final Sign
}

// Labeling is the result of the tree-labeling step for one request,
// addressed by the node's dense preorder index (dom.Node.Index, equal
// to its arena index).
//
// It is sparse. Figure 2 gives a node that no applicable authorization
// names no signs of its own: an element takes R, RD and RW from its
// parent, and an attribute takes its signs from its element's label
// alone. So a subtree holding no named node carries one final sign
// throughout, FirstDef(R, RD, RW) of its nearest labeled ancestor.
// Engine.Label therefore stores labels only for the named nodes and
// their ancestor chains, in preorder, and Of/FinalAt derive the label
// of any other element or attribute from its nearest stored ancestor.
// The storage is O(named × depth), not O(document).
//
// The sweeps rely on the stored nodes being closed under parent: a
// stored node's ancestors are stored. A complete labeling, one that
// stores every element and attribute (NaiveLabel's), is too.
//
// A Labeling is only meaningful against the document (and numbering
// generation) it was computed from.
type Labeling struct {
	// ar answers for the nodes not stored; nil for a complete
	// labeling, where an absent index is not an element or attribute.
	ar     *dom.Arena
	idx    []int32 // stored indexes, ascending
	labels []Label // labels[k] is the label of idx[k]
}

// add stores the label of index i; indexes must arrive in preorder.
func (lb *Labeling) add(i int32, l Label) {
	lb.idx = append(lb.idx, i)
	lb.labels = append(lb.labels, l)
}

// Stored returns the number of elements and attributes labeled one at
// a time — the labeling's cost, which the request's cost card reports
// as nodes_labeled. Every other element or attribute is answered from
// its nearest stored ancestor.
func (lb *Labeling) Stored() int { return len(lb.idx) }

// find returns the position of index i among the stored labels, or -1.
func (lb *Labeling) find(i int32) int {
	if k, ok := slices.BinarySearch(lb.idx, i); ok {
		return k
	}
	return -1
}

// inherited is the final sign of every element without a label of its
// own whose nearest stored ancestor carries l, and of its attributes.
func (l *Label) inherited() Sign { return FirstDef(l.R, l.RD, l.RW) }

// attrFinal is the final sign of an attribute of the element labeled l
// that no authorization names.
func (l *Label) attrFinal() Sign {
	return FirstDef(FirstDef(l.L, l.R), FirstDef(l.LD, l.RD), FirstDef(l.LW, l.RW))
}

// lookup returns the label of the node at index i, stored or derived
// from its nearest stored ancestor; ok is false for indexes that are
// not elements or attributes of the document.
func (lb *Labeling) lookup(i int) (lab *Label, ok bool) {
	if i < 0 || i > math.MaxInt32 {
		return nil, false
	}
	if k := lb.find(int32(i)); k >= 0 {
		return &lb.labels[k], true
	}
	ar := lb.ar
	if ar == nil || i >= ar.Len() {
		return nil, false
	}
	kind := ar.Kind(int32(i))
	if kind == dom.AttributeNode {
		// An attribute nothing names takes its label from its element's.
		p, _ := lb.lookup(int(ar.Parent(int32(i))))
		l := attrLabel(Label{}, *p)
		return &l, true
	}
	if kind != dom.ElementNode {
		return nil, false
	}
	var p Label // no stored ancestor: nothing is inherited
	for a := ar.Parent(int32(i)); a > 0; a = ar.Parent(a) {
		if k := lb.find(a); k >= 0 {
			p = lb.labels[k]
			break
		}
	}
	return &Label{R: p.R, RD: p.RD, RW: p.RW, Final: p.inherited()}, true
}

// Of returns the label of n, or nil if n is not an element or
// attribute of the labeled document.
func (lb *Labeling) Of(n *dom.Node) *Label {
	lab, _ := lb.lookup(n.Order)
	return lab
}

// FinalOf returns the final sign of n (ε for unlabeled nodes).
func (lb *Labeling) FinalOf(n *dom.Node) Sign {
	return lb.FinalAt(n.Order)
}

// FinalAt returns the final sign of the node at dense preorder index i
// (ε for indexes that are not elements or attributes).
func (lb *Labeling) FinalAt(i int) Sign {
	if lab, ok := lb.lookup(i); ok {
		return lab.Final
	}
	return Epsilon
}

// Count returns how many elements and attributes of the document carry
// each final sign: the stored labels one by one, and each unlabeled
// range in one ranged count, so plus+minus+eps equals the document's
// element+attribute count.
func (lb *Labeling) Count() (plus, minus, eps int) {
	var c signCounts
	if lb.ar != nil {
		_, _, c = visibility(lb.ar, lb, Policy{})
	} else {
		for k := range lb.labels {
			c.add(lb.labels[k].Final, 1)
		}
	}
	return c.plus, c.minus, c.eps
}
