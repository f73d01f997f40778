package xpath

import (
	"fmt"
	"math"
	"sort"

	"xmlsec/internal/dom"
)

// context carries the evaluation state: the context node, its position
// and the context size (for position() and last()), and the tree root.
type context struct {
	node *dom.Node
	pos  int
	size int
	root *dom.Node
}

// Eval evaluates the expression with the given context node and returns
// the resulting value. Absolute paths are resolved against the root of
// the tree containing ctx.
func (p *Path) Eval(ctx *dom.Node) (Value, error) {
	c := &context{node: ctx, pos: 1, size: 1, root: ctx.Root()}
	return p.expr.eval(c)
}

// Select evaluates the expression and returns the resulting node-set in
// document order (ascending Node.Order), with no duplicates. It returns
// an error if the expression does not evaluate to a node-set.
func (p *Path) Select(ctx *dom.Node) ([]*dom.Node, error) {
	v, err := p.Eval(ctx)
	if err != nil {
		return nil, err
	}
	if v.Kind != NodeSetValue {
		return nil, fmt.Errorf("xpath: %q evaluates to a %s, not a node-set", p.src, kindName(v.Kind))
	}
	return v.Nodes, nil
}

// SelectDoc is Select with the document node of doc as context: the
// result is in document order with no duplicates. SelectDoc always
// evaluates over the pointer tree — it is the differential oracle the
// arena route (SelectIndexes) is checked against. An arena-only document
// is evaluated over a fresh ReadTree copy.
func (p *Path) SelectDoc(doc *dom.Document) ([]*dom.Node, error) {
	return p.Select(doc.ReadTree().Node)
}

// Matches reports whether node n is in the node-set selected by p when
// evaluated from ctx.
func (p *Path) Matches(ctx, n *dom.Node) (bool, error) {
	nodes, err := p.Select(ctx)
	if err != nil {
		return false, err
	}
	for _, m := range nodes {
		if m == n {
			return true, nil
		}
	}
	return false, nil
}

func kindName(k ValueKind) string {
	switch k {
	case NodeSetValue:
		return "node-set"
	case BoolValue:
		return "boolean"
	case NumberValue:
		return "number"
	case StringValue:
		return "string"
	}
	return "value"
}

func (p *pathExpr) eval(c *context) (Value, error) {
	var start []*dom.Node
	switch {
	case p.filter != nil:
		v, err := p.filter.eval(c)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != NodeSetValue {
			if len(p.steps) == 0 {
				return v, nil
			}
			return Value{}, fmt.Errorf("xpath: cannot apply path steps to a %s", kindName(v.Kind))
		}
		start = v.Nodes
	case p.absolute:
		start = []*dom.Node{c.root}
	default:
		start = []*dom.Node{c.node}
	}
	cur := start
	for i := range p.steps {
		next, err := applyStep(c, &p.steps[i], cur)
		if err != nil {
			return Value{}, err
		}
		cur = next
	}
	return NodeSet(cur), nil
}

// applyStep applies one location step to every node of the input set
// and returns the union of the results in document order.
func applyStep(c *context, st *Step, input []*dom.Node) ([]*dom.Node, error) {
	var out []*dom.Node
	for _, n := range input {
		cand := axisNodes(n, st.Axis)
		cand = filterTest(cand, st.Axis, &st.Test)
		// Predicates evaluate with proximity positions: forward axes
		// count in document order, reverse axes (ancestor, preceding-*)
		// count away from the context node. axisNodes returns nodes in
		// proximity order already.
		for _, pred := range st.Preds {
			kept := cand[:0:0]
			size := len(cand)
			for i, m := range cand {
				pc := &context{node: m, pos: i + 1, size: size, root: c.root}
				v, err := pred.eval(pc)
				if err != nil {
					return nil, err
				}
				keep := false
				if v.Kind == NumberValue {
					keep = v.Num == float64(pc.pos)
				} else {
					keep = v.ToBool()
				}
				if keep {
					kept = append(kept, m)
				}
			}
			cand = kept
		}
		out = append(out, cand...)
	}
	return sortDocOrder(out), nil
}

// axisNodes returns the nodes on the given axis from n, in proximity
// order (document order for forward axes, reverse for reverse axes).
func axisNodes(n *dom.Node, a Axis) []*dom.Node {
	switch a {
	case AxisChild:
		return n.Children
	case AxisDescendant:
		var out []*dom.Node
		collectDescendants(n, &out)
		return out
	case AxisDescendantOrSelf:
		out := []*dom.Node{n}
		collectDescendants(n, &out)
		return out
	case AxisParent:
		if n.Parent != nil {
			return []*dom.Node{n.Parent}
		}
		return nil
	case AxisAncestor:
		var out []*dom.Node
		for p := n.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
		return out
	case AxisAncestorOrSelf:
		out := []*dom.Node{n}
		for p := n.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
		return out
	case AxisSelf:
		return []*dom.Node{n}
	case AxisAttribute:
		return n.Attrs
	case AxisFollowingSibling:
		if n.Parent == nil || n.Type == dom.AttributeNode {
			return nil
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				return sibs[i+1:]
			}
		}
		return nil
	case AxisPrecedingSibling:
		if n.Parent == nil || n.Type == dom.AttributeNode {
			return nil
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				out := make([]*dom.Node, 0, i)
				for j := i - 1; j >= 0; j-- {
					out = append(out, sibs[j])
				}
				return out
			}
		}
		return nil
	case AxisFollowing:
		// All nodes after n in document order, excluding descendants
		// and attributes: the following siblings of n and of each
		// ancestor, with their subtrees, in document order.
		if n.Type == dom.AttributeNode {
			n = n.Parent
		}
		var out []*dom.Node
		for m := n; m != nil && m.Parent != nil; m = m.Parent {
			for _, s := range axisNodes(m, AxisFollowingSibling) {
				out = append(out, s)
				collectDescendants(s, &out)
			}
		}
		return sortDocOrderStable(out)
	case AxisPreceding:
		// All nodes before n in document order, excluding ancestors
		// and attributes; proximity order is reverse document order.
		if n.Type == dom.AttributeNode {
			n = n.Parent
		}
		var out []*dom.Node
		for m := n; m != nil && m.Parent != nil; m = m.Parent {
			for _, s := range axisNodes(m, AxisPrecedingSibling) {
				out = append(out, s)
				collectDescendants(s, &out)
			}
		}
		out = sortDocOrderStable(out)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	return nil
}

// sortDocOrderStable sorts by the Order index (no dedup needed here —
// the following/preceding constructions cannot produce duplicates).
func sortDocOrderStable(nodes []*dom.Node) []*dom.Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Order < nodes[j].Order })
	return nodes
}

func collectDescendants(n *dom.Node, out *[]*dom.Node) {
	for _, c := range n.Children {
		*out = append(*out, c)
		collectDescendants(c, out)
	}
}

// filterTest keeps the candidate nodes admitted by the node test. The
// principal node type of the attribute axis is attribute; of every other
// axis, element.
func filterTest(cand []*dom.Node, a Axis, t *NodeTest) []*dom.Node {
	principal := dom.ElementNode
	if a == AxisAttribute {
		principal = dom.AttributeNode
	}
	out := cand[:0:0]
	for _, n := range cand {
		ok := false
		switch t.Kind {
		case TestName:
			ok = n.Type == principal && n.Name == t.Name
		case TestAny:
			ok = n.Type == principal
		case TestText:
			ok = n.Type == dom.TextNode || n.Type == dom.CDATANode
		case TestComment:
			ok = n.Type == dom.CommentNode
		case TestPI:
			ok = n.Type == dom.ProcessingInstructionNode &&
				(t.Name == "" || n.Name == t.Name)
		case TestNode:
			ok = n.Type != dom.AttributeNode || a == AxisAttribute || a == AxisSelf
		}
		if ok {
			out = append(out, n)
		}
	}
	return out
}

func (e *binaryExpr) eval(c *context) (Value, error) {
	switch e.op {
	case "or", "and":
		lv, err := e.l.eval(c)
		if err != nil {
			return Value{}, err
		}
		if e.op == "or" {
			if lv.ToBool() {
				return Boolean(true), nil
			}
		} else if !lv.ToBool() {
			return Boolean(false), nil
		}
		rv, err := e.r.eval(c)
		if err != nil {
			return Value{}, err
		}
		return Boolean(rv.ToBool()), nil
	case "|":
		lv, err := e.l.eval(c)
		if err != nil {
			return Value{}, err
		}
		rv, err := e.r.eval(c)
		if err != nil {
			return Value{}, err
		}
		if lv.Kind != NodeSetValue || rv.Kind != NodeSetValue {
			return Value{}, fmt.Errorf("xpath: operands of '|' must be node-sets")
		}
		merged := append(append([]*dom.Node{}, lv.Nodes...), rv.Nodes...)
		return NodeSet(sortDocOrder(merged)), nil
	}
	lv, err := e.l.eval(c)
	if err != nil {
		return Value{}, err
	}
	rv, err := e.r.eval(c)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "=", "!=":
		return Boolean(compareEq(lv, rv, e.op == "!=")), nil
	case "<", "<=", ">", ">=":
		return Boolean(compareRel(lv, rv, e.op)), nil
	case "+":
		return Number(lv.ToNumber() + rv.ToNumber()), nil
	case "-":
		return Number(lv.ToNumber() - rv.ToNumber()), nil
	case "*":
		return Number(lv.ToNumber() * rv.ToNumber()), nil
	case "div":
		return Number(lv.ToNumber() / rv.ToNumber()), nil
	case "mod":
		return Number(math.Mod(lv.ToNumber(), rv.ToNumber())), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown operator %q", e.op)
}

// compareEq implements XPath 1.0 §3.4 equality, including the
// existential semantics when node-sets are involved.
func compareEq(l, r Value, neq bool) bool {
	if l.Kind == NodeSetValue && r.Kind == NodeSetValue {
		// Two node-sets compare equal iff some pair of nodes has equal
		// string-values (and != iff some pair differs).
		for _, ln := range l.Nodes {
			ls := NodeString(ln)
			for _, rn := range r.Nodes {
				eq := ls == NodeString(rn)
				if eq != neq {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == NodeSetValue || r.Kind == NodeSetValue {
		ns, other := l, r
		if r.Kind == NodeSetValue {
			ns, other = r, l
		}
		if other.Kind == BoolValue {
			// Comparing a node-set against a boolean converts the
			// node-set via boolean(); it does not iterate.
			eq := ns.ToBool() == other.Bool
			return eq != neq
		}
		for _, n := range ns.Nodes {
			var eq bool
			if other.Kind == NumberValue {
				eq = stringToNumber(NodeString(n)) == other.Num
			} else {
				eq = NodeString(n) == other.ToString()
			}
			if eq != neq {
				return true
			}
		}
		return false
	}
	var eq bool
	switch {
	case l.Kind == BoolValue || r.Kind == BoolValue:
		eq = l.ToBool() == r.ToBool()
	case l.Kind == NumberValue || r.Kind == NumberValue:
		eq = l.ToNumber() == r.ToNumber()
	default:
		eq = l.ToString() == r.ToString()
	}
	return eq != neq
}

// compareRel implements the relational operators with existential
// node-set semantics.
func compareRel(l, r Value, op string) bool {
	num := func(a, b float64) bool {
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		default:
			return a >= b
		}
	}
	if l.Kind == NodeSetValue && r.Kind == NodeSetValue {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				if num(stringToNumber(NodeString(ln)), stringToNumber(NodeString(rn))) {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == NodeSetValue {
		rv := r.ToNumber()
		for _, n := range l.Nodes {
			if num(stringToNumber(NodeString(n)), rv) {
				return true
			}
		}
		return false
	}
	if r.Kind == NodeSetValue {
		lv := l.ToNumber()
		for _, n := range r.Nodes {
			if num(lv, stringToNumber(NodeString(n))) {
				return true
			}
		}
		return false
	}
	return num(l.ToNumber(), r.ToNumber())
}

func (e *filterExpr) eval(c *context) (Value, error) {
	v, err := e.x.eval(c)
	if err != nil {
		return Value{}, err
	}
	if v.Kind != NodeSetValue {
		return Value{}, fmt.Errorf("xpath: predicates require a node-set, got %s", kindName(v.Kind))
	}
	cand := sortDocOrder(append([]*dom.Node{}, v.Nodes...))
	for _, pred := range e.preds {
		kept := cand[:0:0]
		size := len(cand)
		for i, m := range cand {
			pc := &context{node: m, pos: i + 1, size: size, root: c.root}
			pv, err := pred.eval(pc)
			if err != nil {
				return Value{}, err
			}
			keep := false
			if pv.Kind == NumberValue {
				keep = pv.Num == float64(pc.pos)
			} else {
				keep = pv.ToBool()
			}
			if keep {
				kept = append(kept, m)
			}
		}
		cand = kept
	}
	return NodeSet(cand), nil
}

func (e *negExpr) eval(c *context) (Value, error) {
	v, err := e.x.eval(c)
	if err != nil {
		return Value{}, err
	}
	return Number(-v.ToNumber()), nil
}

func (e *literalExpr) eval(*context) (Value, error) { return String(e.s), nil }

func (e *numberExpr) eval(*context) (Value, error) { return Number(e.f), nil }

func (e *callExpr) eval(c *context) (Value, error) {
	spec := functions[e.name]
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return spec.fn(c, args)
}
