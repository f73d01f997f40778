package dom

import "fmt"

// ChangeKind classifies one edit between two documents.
type ChangeKind int

// Edit kinds produced by Diff. The granularity matches the
// access-control model's: elements and attributes are the protected
// units, so text edits are attributed to their containing element.
const (
	// InsertNode adds New under Parent (an element of the old tree).
	InsertNode ChangeKind = iota + 1
	// DeleteNode removes Old (and its subtree) from the old tree.
	DeleteNode
	// EditContent changes the character data directly inside Old (an
	// element of the old tree): text/CDATA/comment/PI children differ.
	EditContent
	// PutAttr sets attribute New on the element Parent; Old is the
	// replaced attribute node, nil when the attribute is new.
	PutAttr
	// DelAttr removes attribute Old from its element.
	DelAttr
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case InsertNode:
		return "insert"
	case DeleteNode:
		return "delete"
	case EditContent:
		return "edit-content"
	case PutAttr:
		return "put-attr"
	case DelAttr:
		return "del-attr"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// Change is one edit. Old and Parent reference nodes of the *old*
// document (the authorization targets); New references the new one.
type Change struct {
	Kind   ChangeKind
	Old    *Node
	New    *Node
	Parent *Node
}

// String renders the change for diagnostics.
func (c Change) String() string {
	switch c.Kind {
	case InsertNode:
		return fmt.Sprintf("insert %s under %s", c.New.label(), c.Parent.Path())
	case DeleteNode:
		return fmt.Sprintf("delete %s", c.Old.Path())
	case EditContent:
		return fmt.Sprintf("edit content of %s", c.Old.Path())
	case PutAttr:
		if c.Old != nil {
			return fmt.Sprintf("set %s=%q", c.Old.Path(), c.New.Data)
		}
		return fmt.Sprintf("add @%s=%q on %s", c.New.Name, c.New.Data, c.Parent.Path())
	case DelAttr:
		return fmt.Sprintf("remove %s", c.Old.Path())
	default:
		return c.Kind.String()
	}
}

// Diff computes the edits that turn oldDoc into newDoc: a recursive
// tree alignment in which element children are matched by a
// longest-common-subsequence over their names, matched elements
// recurse, and everything unmatched becomes an insertion or deletion.
// Diff never mutates either document; an arena-only document is diffed
// over a ReadTree copy, so its Change nodes belong to that copy.
//
// The alignment is deterministic and conservative: a renamed element is
// reported as delete+insert, and any difference in an element's direct
// character data is a single EditContent on that element — exactly the
// units the write-authorization check needs.
func Diff(oldDoc, newDoc *Document) []Change {
	oldDoc, newDoc = oldDoc.ReadTree(), newDoc.ReadTree()
	oldRoot, newRoot := oldDoc.DocumentElement(), newDoc.DocumentElement()
	var out []Change
	switch {
	case oldRoot == nil && newRoot == nil:
		return nil
	case oldRoot == nil:
		out = append(out, Change{Kind: InsertNode, New: newRoot, Parent: oldDoc.Node})
		return out
	case newRoot == nil:
		out = append(out, Change{Kind: DeleteNode, Old: oldRoot})
		return out
	case oldRoot.Name != newRoot.Name:
		return append(out,
			Change{Kind: DeleteNode, Old: oldRoot},
			Change{Kind: InsertNode, New: newRoot, Parent: oldDoc.Node})
	}
	diffElement(oldRoot, newRoot, &out)
	return out
}

func diffElement(o, n *Node, out *[]Change) {
	// Attributes by name.
	for _, oa := range o.Attrs {
		na := n.AttrNode(oa.Name)
		switch {
		case na == nil:
			*out = append(*out, Change{Kind: DelAttr, Old: oa})
		case na.Data != oa.Data:
			*out = append(*out, Change{Kind: PutAttr, Old: oa, New: na, Parent: o})
		}
	}
	for _, na := range n.Attrs {
		if o.AttrNode(na.Name) == nil {
			*out = append(*out, Change{Kind: PutAttr, New: na, Parent: o})
		}
	}

	// Element children: LCS alignment by name.
	oe := o.ChildElements()
	ne := n.ChildElements()
	matchedO, matchedN := lcsMatch(oe, ne)
	for i, c := range oe {
		if matchedO[i] < 0 {
			*out = append(*out, Change{Kind: DeleteNode, Old: c})
		}
	}
	for j, c := range ne {
		if matchedN[j] < 0 {
			*out = append(*out, Change{Kind: InsertNode, New: c, Parent: o})
		}
	}
	for i, j := range matchedO {
		if j >= 0 {
			diffElement(oe[i], ne[j], out)
		}
	}

	// Direct character data (text, CDATA, comments, PIs) as one unit.
	if contentKey(o, nil) != contentKey(n, nil) {
		*out = append(*out, Change{Kind: EditContent, Old: o, New: n})
	}
}

// contentKey summarizes an element's direct character data (text,
// CDATA, comments, PIs), restricted to mask-visible children. Element
// children are excluded: their changes are reported separately by the
// alignment, and including them here would double-report pure
// insertions/deletions as content edits.
func contentKey(n *Node, mask Bitmask) string {
	var b []byte
	for _, c := range n.Children {
		if !mask.Visible(c) {
			continue
		}
		switch c.Type {
		case TextNode:
			b = append(b, 't')
		case CDATANode:
			b = append(b, 'c')
		case CommentNode:
			b = append(b, '#')
		case ProcessingInstructionNode:
			b = append(b, '?')
			b = append(b, c.Name...)
		default:
			continue
		}
		b = append(b, c.Data...)
		b = append(b, 0)
	}
	return string(b)
}

// AlignByName aligns two element lists by name with a classic O(n·m)
// longest common subsequence; it returns, for each side, the matched
// index on the other side (-1 when unmatched). Diff and the
// write-through-views merge share this alignment so they agree on what
// an edit is.
func AlignByName(a, b []*Node) (ma, mb []int) { return lcsMatch(a, b) }

// ContentKey summarizes an element's direct character data; two
// elements with equal keys have identical text/CDATA/comment/PI
// content in the same order.
func ContentKey(n *Node) string { return contentKey(n, nil) }

// ContentKeyMasked is ContentKey restricted to mask-visible children —
// the content of an element as a masked view presents it. The
// write-through-views merge uses it to detect content edits against
// what the requester was actually shown.
func ContentKeyMasked(n *Node, mask Bitmask) string { return contentKey(n, mask) }

// lcsMatch aligns two element lists by name with a classic O(n·m) LCS;
// it returns, for each side, the matched index on the other side (-1
// when unmatched).
func lcsMatch(a, b []*Node) (ma, mb []int) {
	ma = make([]int, len(a))
	mb = make([]int, len(b))
	for i := range ma {
		ma[i] = -1
	}
	for j := range mb {
		mb[j] = -1
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i].Name == b[j].Name {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name == b[j].Name:
			ma[i], mb[j] = j, i
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return ma, mb
}
