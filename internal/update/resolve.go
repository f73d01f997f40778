package update

import (
	"context"
	"fmt"

	"xmlsec/internal/dom"
)

// Error classes of a per-operation report. The server maps them onto
// the HTTP ladder: any forbidden operation fails the script with 403,
// otherwise any conflict with 409, otherwise 422.
const (
	// ClassInvalid marks an operation the document cannot make sense
	// of regardless of authority (wrong target node kind never counts
	// here — that depends on document state and is a conflict).
	ClassInvalid = "invalid"
	// ClassConflict marks an operation whose targets do not fit the
	// document: nothing (visibly) selected, the document element where
	// an ordinary element is required, an attribute where an element
	// is required.
	ClassConflict = "conflict"
	// ClassForbidden marks an operation denied by write authorization.
	ClassForbidden = "forbidden"
)

// OpError is one operation's failure in a report. Reasons speak only
// of nodes the requester's view contains: a target that exists but is
// invisible reads exactly like an absent one, and a denial inside a
// subtree names only the (visible) subtree root.
type OpError struct {
	// Op is the operation's position in the script.
	Op int `json:"op"`
	// Kind is the operation kind, echoed for readability.
	Kind string `json:"kind"`
	// Class is ClassInvalid, ClassConflict, or ClassForbidden.
	Class string `json:"class"`
	// Reason describes the failure in view-safe terms.
	Reason string `json:"reason"`
}

func (e OpError) Error() string {
	return fmt.Sprintf("op %d (%s): %s: %s", e.Op, e.Kind, e.Class, e.Reason)
}

// Resolution is the outcome of a successful Resolve: per-operation
// target index sets against the pre-update document, plus how many
// write-authorization checks resolving them took.
type Resolution struct {
	// Targets holds, for each operation, the dense preorder indexes of
	// its visible targets, in document order. These are what the
	// write-ahead log journals: Apply re-executes them with no
	// authorization state at all.
	Targets [][]int32
	// TargetsChecked counts the target nodes that went through
	// write-authorization checks (subtree checks count the subtree's
	// nodes).
	TargetsChecked int
}

// Resolve evaluates every operation's target node-set against doc and
// checks it under the caller's predicates: visible is the requester's
// read mask (by dense preorder index), writable their write labeling.
// Targets are intersected with the read mask first, so operations can
// neither touch nor probe nodes outside the requester's view; the
// write checks then mirror core.MergeView's authority mapping exactly:
//
//   - insert-into, replace-text, adding an attribute: the target
//     element must be writable;
//   - insert-before/insert-after, replace-node: the target's parent
//     (which receives the insertion) must be writable;
//   - delete, replace-node: every element and attribute of the target
//     subtree must be writable (a denial anywhere below protects the
//     content from removal);
//   - set-attr on an existing attribute: the attribute must be
//     writable — whether the attribute is invisible or merely not
//     writable, the refusal reads the same;
//   - replace-text additionally requires the element's children to be
//     fully visible, since the edit rewrites content the requester
//     must have been able to read.
//
// The error report collects every failing operation, not just the
// first, so a client can fix a script in one round trip. A nil report
// means the whole script resolved.
//
// Resolution runs on doc's arena alone (doc.ReadArena): kinds, parents,
// attribute ranges and child lists are arena lookups, and the reasons
// name nodes by Arena.Path, which reads exactly like Node.Path. A
// stored, arena-only document is resolved without building a tree.
func Resolve(ctx context.Context, doc *dom.Document, s *Script, visible, writable func(int32) bool) (*Resolution, []OpError) {
	r := &resolver{
		doc: doc, ar: doc.ReadArena(), visible: visible, writable: writable,
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

type resolver struct {
	doc      *dom.Document
	ar       *dom.Arena
	visible  func(int32) bool
	writable func(int32) bool
	res      *Resolution
}

func (r *resolver) resolveOp(ctx context.Context, i int, op *Op) []OpError {
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
		if t < 0 || int(t) >= r.ar.Len() {
			return fail(ClassInvalid, "target %s selects an unindexed node", op.Target)
		}
		if e := r.checkTarget(i, op, t); e != nil {
			errs = append(errs, *e)
		}
	}
	if errs != nil {
		return errs
	}
	r.res.Targets[i] = vis
	return nil
}

// checkTarget applies one operation's authority mapping to target t.
func (r *resolver) checkTarget(i int, op *Op, t int32) *OpError {
	ar := r.ar
	fail := func(class, format string, args ...any) *OpError {
		return &OpError{Op: i, Kind: op.Kind, Class: class, Reason: fmt.Sprintf(format, args...)}
	}
	canWrite := func(m int32) bool {
		r.res.TargetsChecked++
		return r.writable(m)
	}
	// underElement reports whether t's parent is an element: the
	// document element's parent is the document node.
	parent := ar.Parent(t)
	underElement := parent >= 0 && ar.Kind(parent) == dom.ElementNode
	kind := ar.Kind(t)
	switch op.Kind {
	case OpInsertInto:
		if kind != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", ar.Path(t))
		}
		if !canWrite(t) {
			return fail(ClassForbidden, "no write authority on %s (insert)", ar.Path(t))
		}
	case OpInsertBefore, OpInsertAfter:
		if kind != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", ar.Path(t))
		}
		if !underElement {
			return fail(ClassConflict, "cannot insert beside the document element")
		}
		if !canWrite(parent) {
			return fail(ClassForbidden, "no write authority on %s (insert)", ar.Path(parent))
		}
	case OpDelete:
		switch kind {
		case dom.AttributeNode:
			if !canWrite(t) {
				return fail(ClassForbidden, "no write authority on %s (delete)", ar.Path(t))
			}
		case dom.ElementNode:
			if !underElement {
				return fail(ClassConflict, "cannot delete the document element")
			}
			if !r.deletable(t) {
				return fail(ClassForbidden, "no write authority on %s (delete)", ar.Path(t))
			}
		default:
			return fail(ClassConflict, "%s is not an element or attribute", ar.Path(t))
		}
	case OpReplaceNode:
		if kind != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", ar.Path(t))
		}
		if !underElement {
			return fail(ClassConflict, "cannot replace the document element")
		}
		if !r.deletable(t) || !canWrite(parent) {
			return fail(ClassForbidden, "no write authority on %s (replace)", ar.Path(t))
		}
	case OpReplaceText:
		if kind != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", ar.Path(t))
		}
		// The edit rewrites the element's direct content, so the
		// requester must have been shown all of it — hidden character
		// data or hidden element children forbid the edit (the same
		// guard the whole-document merge applies).
		for c := ar.FirstChild(t); c >= 0; c = ar.NextSibling(c) {
			if !r.visible(c) {
				return fail(ClassForbidden, "content of %s is not fully readable", ar.Path(t))
			}
		}
		if !canWrite(t) {
			return fail(ClassForbidden, "no write authority on %s (content edit)", ar.Path(t))
		}
	case OpSetAttr:
		if kind != dom.ElementNode {
			return fail(ClassConflict, "%s is not an element", ar.Path(t))
		}
		if a := r.attr(t, op.Name); a >= 0 {
			// Existing attribute: writable or refused — and an
			// invisible attribute refuses with the same words, so the
			// write path confirms nothing the view withheld.
			if !r.visible(a) || !canWrite(a) {
				return fail(ClassForbidden, "cannot set @%s on %s", op.Name, ar.Path(t))
			}
		} else if !canWrite(t) {
			return fail(ClassForbidden, "cannot set @%s on %s", op.Name, ar.Path(t))
		}
	default:
		return fail(ClassInvalid, "unknown operation")
	}
	return nil
}

// attr returns the index of element e's attribute named name, or -1.
func (r *resolver) attr(e int32, name string) int32 {
	sym, ok := r.ar.LookupSym(name)
	if !ok {
		return -1
	}
	lo, hi := r.ar.Attrs(e)
	for a := lo; a < hi; a++ {
		if r.ar.NameSym(a) == sym {
			return a
		}
	}
	return -1
}

// deletable mirrors core.MergeView's rule: removing an element needs
// write authority over every element and attribute of its subtree,
// visible or not.
func (r *resolver) deletable(e int32) bool {
	r.res.TargetsChecked++
	if !r.writable(e) {
		return false
	}
	lo, hi := r.ar.Attrs(e)
	for a := lo; a < hi; a++ {
		r.res.TargetsChecked++
		if !r.writable(a) {
			return false
		}
	}
	for c := r.ar.FirstChild(e); c >= 0; c = r.ar.NextSibling(c) {
		if r.ar.Kind(c) == dom.ElementNode && !r.deletable(c) {
			return false
		}
	}
	return true
}
