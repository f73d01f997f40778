package dom

import (
	"strings"
	"testing"
)

// buildSample constructs <a x="1"><b>hi</b><c y="2"/>tail</a> inside a
// document.
func buildSample() (*Document, *Node, *Node, *Node) {
	doc := NewDocument()
	a := NewElement("a")
	a.SetAttr("x", "1")
	b := NewElement("b")
	b.AppendChild(NewText("hi"))
	c := NewElement("c")
	c.SetAttr("y", "2")
	a.AppendChild(b)
	a.AppendChild(c)
	a.AppendChild(NewText("tail"))
	doc.SetDocumentElement(a)
	doc.Renumber()
	return doc, a, b, c
}

func TestAppendRemoveChild(t *testing.T) {
	_, a, b, c := buildSample()
	if b.Parent != a || c.Parent != a {
		t.Fatal("parent links wrong after AppendChild")
	}
	if !a.RemoveChild(b) {
		t.Fatal("RemoveChild(b) = false")
	}
	if b.Parent != nil {
		t.Error("removed child keeps parent link")
	}
	if a.RemoveChild(b) {
		t.Error("removing twice should report false")
	}
	if len(a.Children) != 2 {
		t.Errorf("children = %d, want 2", len(a.Children))
	}
}

func TestAppendChildPanics(t *testing.T) {
	a := NewElement("a")
	defer func() {
		if recover() == nil {
			t.Error("AppendChild with attribute node should panic")
		}
	}()
	a.AppendChild(&Node{Type: AttributeNode, Name: "x", Data: "1"})
}

func TestAppendAttachedChildPanics(t *testing.T) {
	_, _, b, _ := buildSample()
	other := NewElement("other")
	defer func() {
		if recover() == nil {
			t.Error("AppendChild with attached node should panic")
		}
	}()
	other.AppendChild(b)
}

func TestAttrOperations(t *testing.T) {
	_, a, _, _ := buildSample()
	if v, ok := a.Attr("x"); !ok || v != "1" {
		t.Errorf("Attr(x) = %q, %v", v, ok)
	}
	if _, ok := a.Attr("nope"); ok {
		t.Error("Attr(nope) should be absent")
	}
	a.SetAttr("x", "9")
	if v, _ := a.Attr("x"); v != "9" {
		t.Errorf("SetAttr did not replace: %q", v)
	}
	if len(a.Attrs) != 1 {
		t.Errorf("SetAttr duplicated the attribute: %d attrs", len(a.Attrs))
	}
	if !a.RemoveAttr("x") || a.RemoveAttr("x") {
		t.Error("RemoveAttr semantics wrong")
	}
}

func TestChildElementHelpers(t *testing.T) {
	_, a, b, c := buildSample()
	els := a.ChildElements()
	if len(els) != 2 || els[0] != b || els[1] != c {
		t.Fatalf("ChildElements = %v", els)
	}
	if a.FirstChildElement("") != b {
		t.Error("FirstChildElement(\"\") should be b")
	}
	if a.FirstChildElement("c") != c {
		t.Error("FirstChildElement(c) wrong")
	}
	if a.FirstChildElement("zz") != nil {
		t.Error("FirstChildElement(zz) should be nil")
	}
}

func TestTextConcatenation(t *testing.T) {
	doc := NewDocument()
	a := NewElement("a")
	a.AppendChild(NewText("x"))
	b := NewElement("b")
	b.AppendChild(NewText("y"))
	b.AppendChild(&Node{Type: CDATANode, Data: "z"})
	a.AppendChild(b)
	a.AppendChild(&Node{Type: CommentNode, Data: "not text"})
	a.AppendChild(NewText("w"))
	doc.SetDocumentElement(a)
	if got := a.Text(); got != "xyzw" {
		t.Errorf("Text() = %q, want xyzw", got)
	}
	if got := b.Text(); got != "yz" {
		t.Errorf("b.Text() = %q, want yz", got)
	}
	at := &Node{Type: AttributeNode, Name: "k", Data: "v"}
	if at.Text() != "v" {
		t.Error("attribute Text() should be its value")
	}
}

func TestRootDepthPath(t *testing.T) {
	doc, a, b, _ := buildSample()
	if b.Root() != doc.Node {
		t.Error("Root should be the document node")
	}
	if doc.Node.Depth() != 0 || a.Depth() != 1 || b.Depth() != 2 {
		t.Error("Depth values wrong")
	}
	if got := b.Path(); got != "/a/b" {
		t.Errorf("Path = %q, want /a/b", got)
	}
	if got := a.AttrNode("x").Path(); got != "/a/@x" {
		t.Errorf("attr Path = %q, want /a/@x", got)
	}
	if doc.Node.Path() != "/" {
		t.Errorf("document Path = %q", doc.Node.Path())
	}
}

func TestIsAncestorOf(t *testing.T) {
	doc, a, b, c := buildSample()
	if !a.IsAncestorOf(b) || !doc.Node.IsAncestorOf(c) {
		t.Error("ancestry not detected")
	}
	if b.IsAncestorOf(a) || a.IsAncestorOf(a) {
		t.Error("IsAncestorOf must be strict and directional")
	}
}

func TestCloneDeepAndDetached(t *testing.T) {
	_, a, _, _ := buildSample()
	c := a.Clone()
	if c.Parent != nil {
		t.Error("clone should be detached")
	}
	if MarkupString(c) != MarkupString(a) {
		t.Errorf("clone differs:\n%s\n%s", MarkupString(c), MarkupString(a))
	}
	// Mutating the clone must not touch the original.
	c.SetAttr("x", "mutated")
	c.Children[0].AppendChild(NewText("!"))
	if v, _ := a.Attr("x"); v != "1" {
		t.Error("clone mutation leaked into original attribute")
	}
	if a.Children[0].Text() != "hi" {
		t.Error("clone mutation leaked into original children")
	}
	// Parent pointers inside the clone are internally consistent.
	for _, ch := range c.Children {
		if ch.Parent != c {
			t.Error("clone children parent pointers wrong")
		}
	}
	for _, at := range c.Attrs {
		if at.Parent != c {
			t.Error("clone attr parent pointers wrong")
		}
	}
}

func TestRenumberOrdering(t *testing.T) {
	doc, a, b, c := buildSample()
	n := doc.Renumber()
	// document, a, @x, b, text(hi), c, @y, text(tail) = 8 nodes
	if n != 8 {
		t.Errorf("Renumber counted %d nodes, want 8", n)
	}
	if !(doc.Node.Order < a.Order && a.Order < a.Attrs[0].Order) {
		t.Error("element must precede its attributes")
	}
	if !(a.Attrs[0].Order < b.Order && b.Order < c.Order) {
		t.Error("attributes must precede children; siblings in order")
	}
	if !(c.Order < c.Attrs[0].Order) {
		t.Error("c's attribute must follow c")
	}
}

func TestCountNodes(t *testing.T) {
	doc, _, _, _ := buildSample()
	// elements a,b,c + attrs x,y = 5
	if got := doc.CountNodes(); got != 5 {
		t.Errorf("CountNodes = %d, want 5", got)
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc, _, _, _ := buildSample()
	var visited []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Name)
			return n.Name != "a" // skip below a
		}
		return true
	})
	if strings.Join(visited, ",") != "a" {
		t.Errorf("Walk visited %v, want just a", visited)
	}
}

func TestDocumentClone(t *testing.T) {
	doc, _, _, _ := buildSample()
	doc.DocType = &DocType{Name: "a", SystemID: "a.dtd"}
	c := doc.Clone()
	if c.String() != doc.String() {
		t.Errorf("document clone serialization differs")
	}
	c.DocType.SystemID = "other.dtd"
	if doc.DocType.SystemID != "a.dtd" {
		t.Error("DocType not deep-copied")
	}
	c.DocumentElement().SetAttr("x", "2")
	if v, _ := doc.DocumentElement().Attr("x"); v != "1" {
		t.Error("clone shares nodes with original")
	}
}

func TestSetDocumentElementReplaces(t *testing.T) {
	doc, a, _, _ := buildSample()
	doc.Node.AppendChild(&Node{Type: CommentNode, Data: "prolog-ish"})
	e := NewElement("newroot")
	doc.SetDocumentElement(e)
	if doc.DocumentElement() != e {
		t.Error("SetDocumentElement did not install the new root")
	}
	if a.Parent != nil {
		t.Error("old root should be detached")
	}
	// Comments at top level survive.
	found := false
	for _, c := range doc.Node.Children {
		if c.Type == CommentNode {
			found = true
		}
	}
	if !found {
		t.Error("top-level comment lost")
	}
}

func TestNodeTypeString(t *testing.T) {
	types := map[NodeType]string{
		DocumentNode: "document", ElementNode: "element", AttributeNode: "attribute",
		TextNode: "text", CDATANode: "cdata", CommentNode: "comment",
		ProcessingInstructionNode: "pi",
	}
	for ty, want := range types {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if NodeType(99).String() == "" {
		t.Error("unknown NodeType should still render")
	}
}
