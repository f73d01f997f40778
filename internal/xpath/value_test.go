package xpath

import (
	"math"
	"testing"

	"xmlsec/internal/dom"
)

func TestValueToBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NodeSet(nil), false},
		{NodeSet([]*dom.Node{dom.NewElement("a")}), true},
		{Boolean(true), true},
		{Boolean(false), false},
		{Number(0), false},
		{Number(-1), true},
		{Number(math.NaN()), false},
		{Number(math.Inf(1)), true},
		{String(""), false},
		{String("0"), true}, // non-empty string is true, even "0"
	}
	for _, c := range cases {
		if got := c.v.ToBool(); got != c.want {
			t.Errorf("ToBool(%+v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestValueToNumber(t *testing.T) {
	if got := String(" 42 ").ToNumber(); got != 42 {
		t.Errorf("string to number = %v", got)
	}
	if got := String("-3.5").ToNumber(); got != -3.5 {
		t.Errorf("negative decimal = %v", got)
	}
	if !math.IsNaN(String("abc").ToNumber()) || !math.IsNaN(String("").ToNumber()) {
		t.Error("non-numeric strings should be NaN")
	}
	if Boolean(true).ToNumber() != 1 || Boolean(false).ToNumber() != 0 {
		t.Error("boolean to number wrong")
	}
	e := dom.NewElement("n")
	e.AppendChild(dom.NewText("7"))
	if got := NodeSet([]*dom.Node{e}).ToNumber(); got != 7 {
		t.Errorf("node-set to number = %v", got)
	}
	if !math.IsNaN(NodeSet(nil).ToNumber()) {
		t.Error("empty node-set to number should be NaN")
	}
}

func TestValueToString(t *testing.T) {
	if Boolean(true).ToString() != "true" || Boolean(false).ToString() != "false" {
		t.Error("boolean strings wrong")
	}
	if Number(2).ToString() != "2" || Number(2.5).ToString() != "2.5" {
		t.Error("number strings wrong")
	}
	if Number(-0.0).ToString() != "0" {
		t.Errorf("negative zero = %q", Number(-0.0).ToString())
	}
	a := dom.NewElement("a")
	a.AppendChild(dom.NewText("first"))
	b := dom.NewElement("b")
	b.AppendChild(dom.NewText("second"))
	ns := NodeSet([]*dom.Node{a, b})
	if ns.ToString() != "first" {
		t.Errorf("node-set string-value should use the first node, got %q", ns.ToString())
	}
	if NodeSet(nil).ToString() != "" {
		t.Error("empty node-set string should be empty")
	}
}

func TestNodeString(t *testing.T) {
	e := dom.NewElement("e")
	e.AppendChild(dom.NewText("a"))
	child := dom.NewElement("c")
	child.AppendChild(&dom.Node{Type: dom.CDATANode, Data: "b"})
	e.AppendChild(child)
	if got := NodeString(e); got != "ab" {
		t.Errorf("element string-value = %q", got)
	}
	at := &dom.Node{Type: dom.AttributeNode, Name: "k", Data: "v"}
	if NodeString(at) != "v" {
		t.Error("attribute string-value wrong")
	}
	if NodeString(&dom.Node{Type: dom.CommentNode, Data: "c"}) != "c" || NodeString(&dom.Node{Type: dom.ProcessingInstructionNode, Name: "t", Data: "d"}) != "d" {
		t.Error("comment/PI string-values wrong")
	}
}

func TestSortDocOrderDedup(t *testing.T) {
	a := dom.NewElement("a")
	b := dom.NewElement("b")
	a.Order, b.Order = 2, 1
	got := sortDocOrder([]*dom.Node{a, b, a, b, a})
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("sortDocOrder = %v", got)
	}
	if len(sortDocOrder(nil)) != 0 {
		t.Error("empty input should stay empty")
	}
}

func TestXPathRound(t *testing.T) {
	cases := map[float64]float64{
		2.5:  3,
		-2.5: -2, // round half toward +inf
		2.4:  2,
		-2.6: -3,
		0:    0,
	}
	for in, want := range cases {
		if got := xpathRound(in); got != want {
			t.Errorf("xpathRound(%v) = %v, want %v", in, got, want)
		}
	}
	if !math.IsNaN(xpathRound(math.NaN())) {
		t.Error("round(NaN) should be NaN")
	}
	if !math.IsInf(xpathRound(math.Inf(-1)), -1) {
		t.Error("round(-Inf) should be -Inf")
	}
}
