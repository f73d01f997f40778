package core

import (
	"math/rand"
	"strings"
	"testing"

	"xmlsec/internal/dom"
)

// elems returns one element per letter of names, named by it.
func elems(names string) []*dom.Node {
	out := make([]*dom.Node, len(names))
	for i, c := range names {
		out[i] = dom.NewElement(string(c))
	}
	return out
}

// lcsLen is the textbook longest-common-subsequence length.
func lcsLen(a, b string) int {
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			switch {
			case a[i] == b[j]:
				dp[i][j] = dp[i+1][j+1] + 1
			default:
				dp[i][j] = max(dp[i+1][j], dp[i][j+1])
			}
		}
	}
	return dp[0][0]
}

// TestLCSMatch: the alignment matches equal names only, in order, on
// both sides consistently, and as many as a longest common subsequence
// has; an insertion or deletion leaves the stable siblings aligned.
func TestLCSMatch(t *testing.T) {
	check := func(a, b string) (ma, mb []int) {
		t.Helper()
		ma, mb, ok := lcsMatch(elems(a), elems(b))
		if !ok {
			t.Fatalf("lcsMatch(%q, %q) refused", a, b)
		}
		matched, last := 0, -1
		for i, j := range ma {
			if j < 0 {
				continue
			}
			if a[i] != b[j] || mb[j] != i || j <= last {
				t.Fatalf("lcsMatch(%q, %q) = %v / %v: not an order-preserving match of equal names", a, b, ma, mb)
			}
			matched, last = matched+1, j
		}
		for j, i := range mb {
			if i >= 0 && ma[i] != j {
				t.Fatalf("lcsMatch(%q, %q) = %v / %v: sides disagree", a, b, ma, mb)
			}
		}
		if want := lcsLen(a, b); matched != want {
			t.Fatalf("lcsMatch(%q, %q) matched %d, a longest common subsequence has %d", a, b, matched, want)
		}
		return ma, mb
	}
	if _, mb := check("xyz", "xwyz"); mb[1] != -1 || mb[0] != 0 || mb[2] != 1 || mb[3] != 2 {
		t.Errorf("insertion in the middle: %v", mb)
	}
	if ma, _ := check("iii", "ii"); ma[0] != 0 || ma[1] != 1 || ma[2] != -1 {
		t.Errorf("dropping one of a same-name run: %v", ma)
	}
	for _, c := range [][2]string{{"", ""}, {"", "ab"}, {"ab", ""}, {"abc", "abc"}, {"abc", "cba"}, {"yx", "xyxx"}} {
		check(c[0], c[1])
	}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		check(word(), word())
	}
}

// TestLCSMatchBound: the table is refused past maxAlignCells, but a
// common prefix and suffix never count against it.
func TestLCSMatchBound(t *testing.T) {
	if _, _, ok := lcsMatch(elems(strings.Repeat("i", 1000)), elems(strings.Repeat("x", 10000))); ok {
		t.Error("a 10-million-cell alignment was not refused")
	}
	long := strings.Repeat("i", 10000)
	ma, mb, ok := lcsMatch(elems(long), elems(long[:5000]+"x"+long[5000:]))
	if !ok {
		t.Fatal("one insertion into a 10,000-element list was refused")
	}
	if mb[5000] != -1 || ma[4999] != 4999 || ma[5000] != 5001 {
		t.Errorf("insertion misaligned: ma[4999]=%d ma[5000]=%d mb[5000]=%d", ma[4999], ma[5000], mb[5000])
	}
}

// TestContentKey: an element's key covers its direct text, CDATA,
// comments and processing instructions in order, restricted to the
// mask, and never its element children.
func TestContentKey(t *testing.T) {
	mk := func(children ...*dom.Node) *dom.Node {
		e := dom.NewElement("a")
		for _, c := range children {
			e.AppendChild(c)
		}
		return e
	}
	base := contentKey(mk(dom.NewText("t"), &dom.Node{Type: dom.CommentNode, Data: "c1"}), nil)
	for name, other := range map[string]*dom.Node{
		"comment edit": mk(dom.NewText("t"), &dom.Node{Type: dom.CommentNode, Data: "c2"}),
		"text edit":    mk(dom.NewText("u"), &dom.Node{Type: dom.CommentNode, Data: "c1"}),
		"reordered":    mk(&dom.Node{Type: dom.CommentNode, Data: "c1"}, dom.NewText("t")),
		"pi added":     mk(dom.NewText("t"), &dom.Node{Type: dom.CommentNode, Data: "c1"}, &dom.Node{Type: dom.ProcessingInstructionNode, Name: "p", Data: "d"}),
	} {
		if contentKey(other, nil) == base {
			t.Errorf("%s: same key as the original", name)
		}
	}
	if contentKey(mk(dom.NewText("t"), dom.NewElement("b"), &dom.Node{Type: dom.CommentNode, Data: "c1"}), nil) != base {
		t.Error("an element child changed the key")
	}
	doc := dom.NewDocument()
	doc.SetDocumentElement(mk(dom.NewText("t"), &dom.Node{Type: dom.CommentNode, Data: "c1"}, dom.NewText("hidden")))
	doc.Renumber()
	root := doc.DocumentElement()
	mask := dom.NewBitmask(doc.NodeCount())
	for _, c := range root.Children[:2] {
		mask.Set(c.Order)
	}
	if contentKey(root, mask) != base {
		t.Error("a masked-out text child counted in the key")
	}
}
