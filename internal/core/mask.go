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
// The sweep runs over the document's arena (doc.ReadArena): linear
// passes over the flat kind/sibling/attr-range arrays. PruneDoc over a
// clone is the independent implementation the differential tests
// compare it against. Neither doc nor lb is modified, so any number of
// Visibility calls may run concurrently over one shared immutable
// document.
func Visibility(doc *dom.Document, lb *Labeling, pol Policy) (mask dom.Bitmask, kept int) {
	ar := doc.ReadArena()
	mask = dom.NewBitmask(ar.Len())
	mask.Set(0) // the document node
	for c := ar.FirstChild(0); c >= 0; c = ar.NextSibling(c) {
		if ar.Kind(c) != dom.ElementNode {
			mask.Set(int(c)) // prolog comments/PIs
		}
	}
	root := ar.DocumentElement()
	if root < 0 {
		return mask, 0
	}
	var visit func(i int32) bool
	visit = func(i int32) bool {
		selfVisible := pol.visible(lb.FinalAt(int(i)))
		survives := selfVisible
		s, e := ar.Attrs(i)
		for a := s; a < e; a++ {
			if pol.visible(lb.FinalAt(int(a))) {
				mask.Set(int(a))
				kept++
				survives = true
			}
		}
		for c := ar.FirstChild(i); c >= 0; c = ar.NextSibling(c) {
			if ar.Kind(c) == dom.ElementNode {
				if visit(c) {
					survives = true
				}
			} else if selfVisible {
				// Character data belongs to its containing element and
				// is withheld from elements kept only as structure.
				mask.Set(int(c))
			}
		}
		if survives {
			mask.Set(int(i))
			kept++
		}
		return survives
	}
	visit(root)
	return mask, kept
}
