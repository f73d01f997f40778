package core

import "xmlsec/internal/dom"

// Visibility computes the transformation step (Section 6.2) as a pure
// function: instead of pruning a tree, it returns a visibility bitmask
// over doc's dense node indexes in which a bit is set exactly for the
// nodes PruneDoc keeps. kept counts the surviving
// elements and attributes (the unit of the paper's statistics).
//
// The semantics are PruneDoc's, unchanged: a subtree whose final labels
// do not grant access under the policy is dropped unless a permitted
// descendant survives, in which case the denied/unlabeled ancestors
// remain as connective structure — visible start/end tags without their
// own character data. Attributes survive on their own label only;
// text, CDATA, comments and PIs follow their containing element's own
// visibility. The document node and prolog comments/PIs are always
// visible (pruning never touched them either).
//
// The sweep runs over the document's arena (doc.ReadArena()) and visits
// only the labeled elements: a sparse labeling stores few of them, and
// each child subtree it does not store carries one final sign
// throughout, so the subtree is kept whole, one word of the mask at a
// time, or dropped whole — no node in it can be visible below a hidden
// one. A complete labeling (NaiveLabel's) degenerates to a visit of
// every element. PruneDoc over a clone is the independent
// implementation the differential tests compare it against. Neither
// doc nor lb is modified, so any number of Visibility calls may run
// concurrently over one shared immutable document.
func Visibility(doc *dom.Document, lb *Labeling, pol Policy) (mask dom.Bitmask, kept int) {
	mask, kept, _ = visibility(doc.ReadArena(), lb, pol)
	return mask, kept
}

// signCounts tallies elements and attributes by final sign.
type signCounts struct{ plus, minus, eps int }

func (c *signCounts) add(s Sign, n int) {
	switch s {
	case Plus:
		c.plus += n
	case Minus:
		c.minus += n
	default:
		c.eps += n
	}
}

// visibility is Visibility over the arena, also tallying the final sign
// of every element and attribute in the same walk: the labeled ones one
// by one, each unlabeled range in one count.
func visibility(ar *dom.Arena, lb *Labeling, pol Policy) (dom.Bitmask, int, signCounts) {
	sw := sweep{ar: ar, lb: lb, pol: pol, mask: dom.NewBitmask(ar.Len())}
	sw.mask.Set(0) // the document node
	for c := ar.FirstChild(0); c >= 0; c = ar.NextSibling(c) {
		if ar.Kind(c) != dom.ElementNode {
			sw.mask.Set(int(c)) // prolog comments/PIs
		}
	}
	if root := ar.DocumentElement(); root >= 0 {
		rootEnd := ar.SubtreeEnd(root)
		if len(lb.idx) == 0 || lb.idx[0] != root {
			sw.fill(root, rootEnd, Epsilon)
		} else {
			sw.visit(rootEnd)
		}
	}
	return sw.mask, sw.kept, sw.signs
}

// sweep is the state of one visibility walk.
type sweep struct {
	ar    *dom.Arena
	lb    *Labeling
	pol   Policy
	mask  dom.Bitmask
	kept  int
	signs signCounts
	k     int // position in lb of the next labeled node to visit
}

// fill decides the unlabeled range [lo, hi), all of whose elements and
// attributes carry sign s: it is kept whole when s is visible.
func (sw *sweep) fill(lo, hi int32, s Sign) bool {
	n := sw.ar.CountElemAttrsIn(lo, hi)
	sw.signs.add(s, n)
	if !sw.pol.visible(s) {
		return false
	}
	sw.mask.SetRange(int(lo), int(hi))
	sw.kept += n
	return true
}

// run decides the children in [lo, hi) of an element whose own
// visibility is selfVisible and whose unlabeled children inherit sign
// inherited, and reports whether any of them survives. None of them is
// labeled, so when both visibilities agree the run is one range; else
// it is decided child by child.
func (sw *sweep) run(lo, hi int32, inherited Sign, selfVisible bool) bool {
	if lo >= hi {
		return false
	}
	if sw.pol.visible(inherited) == selfVisible {
		return sw.fill(lo, hi, inherited)
	}
	survives := false
	for c := lo; c >= 0 && c < hi; c = sw.ar.NextSibling(c) {
		if sw.ar.Kind(c) != dom.ElementNode {
			// Character data belongs to its containing element and is
			// withheld from elements kept only as structure.
			if selfVisible {
				sw.mask.Set(int(c))
			}
			continue
		}
		cend := sw.ar.NextSibling(c)
		if cend < 0 {
			cend = hi
		}
		survives = sw.fill(c, cend, inherited) || survives
	}
	return survives
}

// visit sweeps the labeled element at position k of the labeling, whose
// subtree ends at end, and reports whether it survives. The labeling is
// in preorder, so k advances through it exactly as the visit descends.
//
// Between the element's labeled children lie runs of siblings that
// hold no labeled node; the sweep decides each run as a whole. Such a
// run is contiguous in preorder, so it is one range — unless the
// element's own visibility, which decides its character data, differs
// from the visibility of the sign its unlabeled children inherit; then
// the run is decided child by child.
func (sw *sweep) visit(end int32) bool {
	ar, lb := sw.ar, sw.lb
	i, lab := lb.idx[sw.k], lb.labels[sw.k]
	sw.k++
	sw.signs.add(lab.Final, 1)
	selfVisible := sw.pol.visible(lab.Final)
	survives := selfVisible
	// The element's named attributes are labeled right after it; the
	// others take their sign from the element's label alone, so an
	// element with no named attribute keeps or drops them as a range.
	s, e := ar.Attrs(i)
	if sw.k < len(lb.idx) && lb.idx[sw.k] < e {
		for a := s; a < e; a++ {
			f := lab.attrFinal()
			if sw.k < len(lb.idx) && lb.idx[sw.k] == a {
				f = lb.labels[sw.k].Final
				sw.k++
			}
			sw.signs.add(f, 1)
			if sw.pol.visible(f) {
				sw.mask.Set(int(a))
				sw.kept++
				survives = true
			}
		}
	} else if s < e {
		// Attribute ranges hold attributes only: no count needed.
		f := lab.attrFinal()
		sw.signs.add(f, int(e-s))
		if sw.pol.visible(f) {
			sw.mask.SetRange(int(s), int(e))
			sw.kept += int(e - s)
			survives = true
		}
	}
	inherited := lab.inherited()
	// The next labeled node inside i's subtree is always a child of i:
	// its parent is labeled, and every labeled node before it has been
	// visited.
	pos := e // the first child's index
	for sw.k < len(lb.idx) && lb.idx[sw.k] < end {
		c := lb.idx[sw.k]
		survives = sw.run(pos, c, inherited, selfVisible) || survives
		cend := ar.NextSibling(c)
		if cend < 0 {
			cend = end
		}
		survives = sw.visit(cend) || survives
		pos = cend
	}
	survives = sw.run(pos, end, inherited, selfVisible) || survives
	if survives {
		sw.mask.Set(int(i))
		sw.kept++
	}
	return survives
}
