package xpath

// Arena-native evaluation: the whole language the compiler accepts,
// evaluated directly over dom.Arena, the struct-of-arrays document
// layout. The context node is a dense preorder index; axis sweeps follow
// the arena's int32 parent/firstChild/nextSibling links (descendant and
// following axes are contiguous range scans, since a preorder subtree is
// an index interval); name tests compare interned symbols resolved once
// per (Path, Arena); attribute lookups are bounded loops over the
// element's [attrStart, attrEnd) range; and node-sets are sorted []int32
// index sets end to end — no *dom.Node is ever touched.
//
// An evaluation may carry a visibility mask (a requester's view, see
// core.Visibility). Every axis step, node test, string-value, position
// and size then sees only mask-visible nodes, so the answer equals the
// one the pointer-tree evaluator gives over the materialized view. Scans
// jump over a hidden node's whole subtree: view masks are upward-closed
// (a visible node's parent is visible), so nothing under a hidden node
// can be visible. A nil mask means the whole document.
//
// Each evaluation is bounded: it counts node visits, and every
// checkEvery visits it stops with ErrBudget past MaxVisits, or with the
// context's error once the context is done.
//
// The pointer-tree evaluator (eval.go) remains the differential oracle:
// FuzzArenaXPathParity pins arena and tree node-sets identical, and
// core's FuzzMaskedQueryParity pins masked evaluation to tree evaluation
// over the materialized view. See docs/XPATH.md.

import (
	stdcontext "context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"xmlsec/internal/dom"
)

// MaxVisits is the node-visit budget of one arena evaluation: enough for
// linear and moderately nested queries over documents of millions of
// nodes, while a quadratic query such as //*[count(//*)>0] over a 15k-node
// document stops after a fraction of a second.
const MaxVisits = 1 << 25

// MaxResultNodes bounds the nodes a query answer may copy out of its
// view: the sum, over the matches, of the visible nodes in each match's
// subtree. MaxVisits bounds the evaluation but not the answer: matches
// may nest, so //* over a 3,000-deep chain selects 3,000 elements yet
// would copy 3,000·3,001/2 ≈ 4.5 million nodes. Callers that
// materialize matches (core.View.QueryResultOf) check this bound before
// copying and fail with ErrResultSize past it. Whole views are not
// queries: GET /docs/ serializes them straight from the arena.
const MaxResultNodes = 1 << 18

// ErrResultSize reports a query answer refused for copying more than
// MaxResultNodes nodes.
var ErrResultSize = errors.New("xpath: query result exceeds its node budget")

// checkEvery is how many visits pass between budget and context checks.
const checkEvery = 1 << 12

// ErrBudget reports an evaluation stopped for exceeding MaxVisits.
var ErrBudget = errors.New("xpath: evaluation exceeded its node-visit budget")

// arenaSymCache resolves a Path's name tests against one arena's symbol
// table: names the arena never interned map to -1, which no node
// carries. A Path caches the resolution for the last arena it was
// evaluated over (one entry suffices: the authorization index already
// deduplicates evaluations per document, so repeated evaluations of one
// Path overwhelmingly target one arena at a time).
type arenaSymCache struct {
	ar   *dom.Arena
	syms map[string]dom.Sym
}

// testNames returns the distinct names the expression's node tests
// mention, collected once per Path.
func (p *Path) testNames() []string {
	p.namesOnce.Do(func() {
		seen := make(map[string]struct{})
		collectTestNames(p.expr, seen)
		p.names = make([]string, 0, len(seen))
		for n := range seen {
			p.names = append(p.names, n)
		}
	})
	return p.names
}

func collectTestNames(e Expr, seen map[string]struct{}) {
	switch x := e.(type) {
	case *pathExpr:
		if x.filter != nil {
			collectTestNames(x.filter, seen)
		}
		for i := range x.steps {
			st := &x.steps[i]
			if st.Test.Kind == TestName || (st.Test.Kind == TestPI && st.Test.Name != "") {
				seen[st.Test.Name] = struct{}{}
			}
			for _, pred := range st.Preds {
				collectTestNames(pred, seen)
			}
		}
	case *binaryExpr:
		collectTestNames(x.l, seen)
		collectTestNames(x.r, seen)
	case *negExpr:
		collectTestNames(x.x, seen)
	case *filterExpr:
		collectTestNames(x.x, seen)
		for _, pred := range x.preds {
			collectTestNames(pred, seen)
		}
	case *callExpr:
		for _, a := range x.args {
			collectTestNames(a, seen)
		}
	}
}

// symsFor returns the name→symbol resolution of this Path against ar,
// building and caching it on first use (and whenever the cached entry
// belongs to a different arena).
func (p *Path) symsFor(ar *dom.Arena) map[string]dom.Sym {
	if c := p.arenaSyms.Load(); c != nil && c.ar == ar {
		return c.syms
	}
	names := p.testNames()
	m := make(map[string]dom.Sym, len(names))
	for _, n := range names {
		if s, ok := ar.LookupSym(n); ok {
			m[n] = s
		} else {
			m[n] = -1
		}
	}
	p.arenaSyms.Store(&arenaSymCache{ar: ar, syms: m})
	return m
}

// selectArena evaluates the expression over the arena, restricted to
// mask when it is non-nil, with the document node (index 0) as context.
// It returns the selected node-set as dense preorder indexes sorted
// ascending — document order, by the arena's preorder invariant — with
// no duplicates. ctx is consulted for cancellation only.
func (p *Path) selectArena(ctx stdcontext.Context, ar *dom.Arena, mask dom.Bitmask) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("xpath: evaluation stopped: %w", err)
	}
	ev := &arenaEval{ar: ar, syms: p.symsFor(ar), mask: mask, ctx: ctx, next: checkEvery}
	v, err := evalArena(p.expr, &arenaContext{ev: ev, node: 0, pos: 1, size: 1})
	if ev.err != nil {
		return nil, ev.err
	}
	if err != nil {
		return nil, err
	}
	if v.kind != NodeSetValue {
		return nil, fmt.Errorf("xpath: %q evaluates to a %s, not a node-set", p.src, kindName(v.kind))
	}
	return assertSortedIdx(v.idx), nil
}

// SelectIndexes evaluates the expression with the document node as
// context over the document's arena (doc.ReadArena) and returns the
// resulting node-set as dense preorder indexes (Node.Order values) in
// document order. viaArena is always true: it predates the removal of
// the pointer-tree route and stays for callers that report it.
// FuzzArenaXPathParity pins the answer to the tree evaluator's.
func (p *Path) SelectIndexes(doc *dom.Document) (idx []int32, viaArena bool, err error) {
	idx, err = p.selectArena(stdcontext.Background(), doc.ReadArena(), nil)
	return idx, true, err
}

// arenaEval is the state one arena evaluation shares across its
// contexts: the document, the optional visibility mask, the resolved
// name symbols, and the visit accounting that bounds the evaluation.
type arenaEval struct {
	ar   *dom.Arena
	syms map[string]dom.Sym
	mask dom.Bitmask
	ctx  stdcontext.Context

	visits int64
	next   int64 // visit count of the next check; 0 once stopped
	err    error // why the evaluation stopped, sticky
}

// visit charges one node visit and reports whether evaluation may go
// on. Once it reports false, ev.err says why, and every later call
// reports false too.
func (ev *arenaEval) visit() bool {
	ev.visits++
	return ev.visits < ev.next || ev.check()
}

func (ev *arenaEval) check() bool {
	if ev.err == nil {
		if ev.visits > MaxVisits {
			ev.err = fmt.Errorf("%w of %d", ErrBudget, MaxVisits)
		} else if err := ev.ctx.Err(); err != nil {
			ev.err = fmt.Errorf("xpath: evaluation stopped: %w", err)
		}
	}
	if ev.err != nil {
		ev.next = 0
		return false
	}
	ev.next = ev.visits + checkEvery
	return true
}

// visible reports whether index i is part of the evaluated view.
func (ev *arenaEval) visible(i int32) bool { return ev.mask.VisibleIdx(i) }

// arenaContext is the arena counterpart of context: the evaluation
// state with the node addressed by dense preorder index.
type arenaContext struct {
	ev   *arenaEval
	node int32
	pos  int
	size int
}

// aValue is the arena counterpart of Value: one of the four XPath 1.0
// types, with node-sets as sorted dense index sets.
type aValue struct {
	kind ValueKind
	idx  []int32
	b    bool
	num  float64
	str  string
}

func aNodeSet(idx []int32) aValue { return aValue{kind: NodeSetValue, idx: idx} }
func aBool(b bool) aValue         { return aValue{kind: BoolValue, b: b} }
func aNumber(f float64) aValue    { return aValue{kind: NumberValue, num: f} }
func aString(s string) aValue     { return aValue{kind: StringValue, str: s} }

// nodeString is NodeString addressed by index: the XPath string-value
// of the node at index i within the view. An element's or the
// document's string-value concatenates only visible text, so character
// data withheld from an element kept as structure never reaches a
// comparison or a string function.
func (ev *arenaEval) nodeString(i int32) string {
	ar := ev.ar
	switch ar.Kind(i) {
	case dom.AttributeNode, dom.TextNode, dom.CDATANode, dom.CommentNode, dom.ProcessingInstructionNode:
		return string(ar.RawData(i))
	}
	var buf []byte
	for j, end := i+1, ar.SubtreeEnd(i); j < end && ev.visit(); {
		if !ev.visible(j) {
			j = ar.SubtreeEnd(j)
			continue
		}
		if k := ar.Kind(j); k == dom.TextNode || k == dom.CDATANode {
			buf = append(buf, ar.RawData(j)...)
		}
		j++
	}
	return string(buf)
}

func (v aValue) toBool() bool {
	switch v.kind {
	case NodeSetValue:
		return len(v.idx) > 0
	case BoolValue:
		return v.b
	case NumberValue:
		return v.num != 0 && !math.IsNaN(v.num)
	case StringValue:
		return v.str != ""
	}
	return false
}

func (ev *arenaEval) toString(v aValue) string {
	switch v.kind {
	case NodeSetValue:
		if len(v.idx) == 0 {
			return ""
		}
		return ev.nodeString(v.idx[0])
	case BoolValue:
		if v.b {
			return "true"
		}
		return "false"
	case NumberValue:
		return formatNumber(v.num)
	case StringValue:
		return v.str
	}
	return ""
}

func (ev *arenaEval) toNumber(v aValue) float64 {
	switch v.kind {
	case NodeSetValue:
		return stringToNumber(ev.toString(v))
	case BoolValue:
		if v.b {
			return 1
		}
		return 0
	case NumberValue:
		return v.num
	case StringValue:
		return stringToNumber(v.str)
	}
	return math.NaN()
}

// evalArena evaluates an expression over the arena. It mirrors
// Expr.eval clause for clause; any divergence between the two is a bug
// the parity fuzzers are designed to catch.
func evalArena(e Expr, c *arenaContext) (aValue, error) {
	if c.ev.err != nil {
		return aValue{}, c.ev.err
	}
	switch x := e.(type) {
	case *pathExpr:
		return evalArenaPath(x, c)
	case *binaryExpr:
		return evalArenaBinary(x, c)
	case *filterExpr:
		return evalArenaFilter(x, c)
	case *negExpr:
		v, err := evalArena(x.x, c)
		if err != nil {
			return aValue{}, err
		}
		return aNumber(-c.ev.toNumber(v)), nil
	case *literalExpr:
		return aString(x.s), nil
	case *numberExpr:
		return aNumber(x.f), nil
	case *callExpr:
		return evalArenaCall(x, c)
	}
	return aValue{}, fmt.Errorf("xpath: internal: unknown expression %T", e)
}

func evalArenaPath(p *pathExpr, c *arenaContext) (aValue, error) {
	var start []int32
	switch {
	case p.filter != nil:
		v, err := evalArena(p.filter, c)
		if err != nil {
			return aValue{}, err
		}
		if v.kind != NodeSetValue {
			if len(p.steps) == 0 {
				return v, nil
			}
			return aValue{}, fmt.Errorf("xpath: cannot apply path steps to a %s", kindName(v.kind))
		}
		start = v.idx
	case p.absolute:
		start = []int32{0}
	default:
		start = []int32{c.node}
	}
	cur := start
	for i := range p.steps {
		next, err := applyStepArena(c.ev, &p.steps[i], cur)
		if err != nil {
			return aValue{}, err
		}
		cur = next
	}
	return aNodeSet(cur), nil
}

// filterPreds keeps the candidates every predicate admits, evaluating
// each predicate with proximity positions over the candidates that
// survived the previous one. It filters cand in place.
func filterPreds(ev *arenaEval, preds []Expr, cand []int32) ([]int32, error) {
	for _, pred := range preds {
		kept := cand[:0]
		size := len(cand)
		for i, m := range cand {
			pc := arenaContext{ev: ev, node: m, pos: i + 1, size: size}
			v, err := evalArena(pred, &pc)
			if err != nil {
				return nil, err
			}
			if ev.err != nil {
				return nil, ev.err
			}
			keep := false
			if v.kind == NumberValue {
				keep = v.num == float64(pc.pos)
			} else {
				keep = v.toBool()
			}
			if keep {
				kept = append(kept, m)
			}
		}
		cand = kept
	}
	return cand, nil
}

// applyStepArena applies one location step to every index of the input
// set and returns the union of the results, sorted ascending (document
// order) and deduplicated.
func applyStepArena(ev *arenaEval, st *Step, input []int32) ([]int32, error) {
	// Resolve the name test to an interned symbol once per step, not
	// once per candidate: the per-node test is then a kind check plus an
	// integer comparison.
	sym := dom.Sym(-1)
	if st.Test.Kind == TestName || (st.Test.Kind == TestPI && st.Test.Name != "") {
		if s, ok := ev.syms[st.Test.Name]; ok {
			sym = s
		}
	}
	var out []int32
	var cand []int32
	for _, n := range input {
		cand = ev.appendAxis(cand[:0], n, st, sym)
		if ev.err != nil {
			return nil, ev.err
		}
		var err error
		if cand, err = filterPreds(ev, st.Preds, cand); err != nil {
			return nil, err
		}
		if isReverse(st.Axis) {
			// Predicates counted away from the context node; the union
			// is built in document order.
			reverseIdx(cand)
		}
		out = append(out, cand...)
	}
	return sortDedupIdx(out), nil
}

func isReverse(a Axis) bool {
	switch a {
	case AxisAncestor, AxisAncestorOrSelf, AxisPrecedingSibling, AxisPreceding:
		return true
	}
	return false
}

func reverseIdx(idx []int32) {
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// appendAxis appends to buf the visible indexes on st's axis from n that
// pass st's node test, in proximity order: document order for forward
// axes, reverse document order for reverse axes (mirrors axisNodes). sym
// is the pre-resolved symbol for name/PI-target tests (-1 when the arena
// does not intern the name, which matches nothing). The context node n
// is always visible, and so, by upward closure, are its ancestors.
func (ev *arenaEval) appendAxis(buf []int32, n int32, st *Step, sym dom.Sym) []int32 {
	ar := ev.ar
	switch st.Axis {
	case AxisChild:
		for ch := ar.FirstChild(n); ch >= 0 && ev.visit(); ch = ar.NextSibling(ch) {
			if ev.visible(ch) && matchTestArena(ar, ch, st, sym) {
				buf = append(buf, ch)
			}
		}
	case AxisSelf:
		if matchTestArena(ar, n, st, sym) {
			buf = append(buf, n)
		}
	case AxisAttribute:
		s, e := ar.Attrs(n)
		for i := s; i < e && ev.visit(); i++ {
			if ev.visible(i) && matchTestArena(ar, i, st, sym) {
				buf = append(buf, i)
			}
		}
	case AxisDescendant, AxisDescendantOrSelf:
		// A preorder subtree is the contiguous range [n, SubtreeEnd(n)):
		// the descendant sweep is a linear scan of the kind/name arrays.
		// Attribute slots inside the range are rejected by every node
		// test under a non-attribute axis, exactly as attributes are
		// absent from the tree evaluator's descendant walk.
		if st.Axis == AxisDescendantOrSelf && matchTestArena(ar, n, st, sym) {
			buf = append(buf, n)
		}
		buf = ev.scan(buf, n+1, ar.SubtreeEnd(n), st, sym)
	case AxisParent:
		if p := ar.Parent(n); p >= 0 && matchTestArena(ar, p, st, sym) {
			buf = append(buf, p)
		}
	case AxisAncestor, AxisAncestorOrSelf:
		if st.Axis == AxisAncestorOrSelf && matchTestArena(ar, n, st, sym) {
			buf = append(buf, n)
		}
		for p := ar.Parent(n); p >= 0 && ev.visit(); p = ar.Parent(p) {
			if matchTestArena(ar, p, st, sym) {
				buf = append(buf, p)
			}
		}
	case AxisFollowingSibling:
		if ar.Parent(n) < 0 || ar.Kind(n) == dom.AttributeNode {
			break
		}
		for s := ar.NextSibling(n); s >= 0 && ev.visit(); s = ar.NextSibling(s) {
			if ev.visible(s) && matchTestArena(ar, s, st, sym) {
				buf = append(buf, s)
			}
		}
	case AxisPrecedingSibling:
		p := ar.Parent(n)
		if p < 0 || ar.Kind(n) == dom.AttributeNode {
			break
		}
		start := len(buf)
		for s := ar.FirstChild(p); s != n && s >= 0 && ev.visit(); s = ar.NextSibling(s) {
			if ev.visible(s) && matchTestArena(ar, s, st, sym) {
				buf = append(buf, s)
			}
		}
		reverseIdx(buf[start:])
	case AxisFollowing:
		// Everything after n's subtree in document order: the following
		// siblings of n and of each ancestor, with their subtrees. An
		// attribute's following axis starts after its element's subtree.
		if ar.Kind(n) == dom.AttributeNode {
			n = ar.Parent(n)
		}
		buf = ev.scan(buf, ar.SubtreeEnd(n), int32(ar.Len()), st, sym)
	case AxisPreceding:
		// Everything before n in document order except its ancestors.
		// A hidden subtree jumped over never contains an ancestor of n:
		// it would then contain n itself.
		if ar.Kind(n) == dom.AttributeNode {
			n = ar.Parent(n)
		}
		var anc []int32
		for p := ar.Parent(n); p >= 0; p = ar.Parent(p) {
			anc = append(anc, p)
		}
		start := len(buf)
		k := len(anc) - 1 // anc is descending; walk it from the root
		for i := int32(0); i < n && ev.visit(); {
			switch {
			case k >= 0 && anc[k] == i:
				k--
			case !ev.visible(i):
				i = ar.SubtreeEnd(i)
				continue
			case matchTestArena(ar, i, st, sym):
				buf = append(buf, i)
			}
			i++
		}
		reverseIdx(buf[start:])
	}
	return buf
}

// scan appends the visible indexes of [from, to) that pass st's node
// test, in document order, jumping over hidden subtrees.
func (ev *arenaEval) scan(buf []int32, from, to int32, st *Step, sym dom.Sym) []int32 {
	ar := ev.ar
	for i := from; i < to && ev.visit(); {
		if !ev.visible(i) {
			i = ar.SubtreeEnd(i)
			continue
		}
		if matchTestArena(ar, i, st, sym) {
			buf = append(buf, i)
		}
		i++
	}
	return buf
}

// matchTestArena reports whether index i passes the step's node test.
// The principal node type of the attribute axis is attribute; of every
// other axis, element (mirrors filterTest).
func matchTestArena(ar *dom.Arena, i int32, st *Step, sym dom.Sym) bool {
	k := ar.Kind(i)
	switch st.Test.Kind {
	case TestName:
		if st.Axis == AxisAttribute {
			return k == dom.AttributeNode && ar.NameSym(i) == sym
		}
		return k == dom.ElementNode && ar.NameSym(i) == sym
	case TestAny:
		if st.Axis == AxisAttribute {
			return k == dom.AttributeNode
		}
		return k == dom.ElementNode
	case TestText:
		return k == dom.TextNode || k == dom.CDATANode
	case TestComment:
		return k == dom.CommentNode
	case TestPI:
		return k == dom.ProcessingInstructionNode &&
			(st.Test.Name == "" || ar.NameSym(i) == sym)
	case TestNode:
		return k != dom.AttributeNode || st.Axis == AxisAttribute || st.Axis == AxisSelf
	}
	return false
}

// evalArenaFilter mirrors filterExpr.eval: predicates over a primary
// expression's whole node-set, positions counted in document order.
func evalArenaFilter(e *filterExpr, c *arenaContext) (aValue, error) {
	v, err := evalArena(e.x, c)
	if err != nil {
		return aValue{}, err
	}
	if v.kind != NodeSetValue {
		return aValue{}, fmt.Errorf("xpath: predicates require a node-set, got %s", kindName(v.kind))
	}
	cand, err := filterPreds(c.ev, e.preds, append([]int32(nil), v.idx...))
	if err != nil {
		return aValue{}, err
	}
	return aNodeSet(cand), nil
}

func evalArenaBinary(e *binaryExpr, c *arenaContext) (aValue, error) {
	ev := c.ev
	switch e.op {
	case "or", "and":
		lv, err := evalArena(e.l, c)
		if err != nil {
			return aValue{}, err
		}
		if e.op == "or" {
			if lv.toBool() {
				return aBool(true), nil
			}
		} else if !lv.toBool() {
			return aBool(false), nil
		}
		rv, err := evalArena(e.r, c)
		if err != nil {
			return aValue{}, err
		}
		return aBool(rv.toBool()), nil
	case "|":
		lv, err := evalArena(e.l, c)
		if err != nil {
			return aValue{}, err
		}
		rv, err := evalArena(e.r, c)
		if err != nil {
			return aValue{}, err
		}
		if lv.kind != NodeSetValue || rv.kind != NodeSetValue {
			return aValue{}, fmt.Errorf("xpath: operands of '|' must be node-sets")
		}
		merged := append(append([]int32{}, lv.idx...), rv.idx...)
		return aNodeSet(sortDedupIdx(merged)), nil
	}
	lv, err := evalArena(e.l, c)
	if err != nil {
		return aValue{}, err
	}
	rv, err := evalArena(e.r, c)
	if err != nil {
		return aValue{}, err
	}
	switch e.op {
	case "=", "!=":
		return aBool(ev.compareEq(lv, rv, e.op == "!=")), nil
	case "<", "<=", ">", ">=":
		return aBool(ev.compareRel(lv, rv, e.op)), nil
	case "+":
		return aNumber(ev.toNumber(lv) + ev.toNumber(rv)), nil
	case "-":
		return aNumber(ev.toNumber(lv) - ev.toNumber(rv)), nil
	case "*":
		return aNumber(ev.toNumber(lv) * ev.toNumber(rv)), nil
	case "div":
		return aNumber(ev.toNumber(lv) / ev.toNumber(rv)), nil
	case "mod":
		return aNumber(math.Mod(ev.toNumber(lv), ev.toNumber(rv))), nil
	}
	return aValue{}, fmt.Errorf("xpath: unknown operator %q", e.op)
}

// compareEq mirrors the tree's compareEq with visible string-values.
func (ev *arenaEval) compareEq(l, r aValue, neq bool) bool {
	if l.kind == NodeSetValue && r.kind == NodeSetValue {
		// Each pair is charged a visit: two large node-sets compare in
		// quadratic time even when their string-values are spans.
		for _, li := range l.idx {
			ls := ev.nodeString(li)
			for _, ri := range r.idx {
				if !ev.visit() {
					return false
				}
				eq := ls == ev.nodeString(ri)
				if eq != neq {
					return true
				}
			}
		}
		return false
	}
	if l.kind == NodeSetValue || r.kind == NodeSetValue {
		ns, other := l, r
		if r.kind == NodeSetValue {
			ns, other = r, l
		}
		if other.kind == BoolValue {
			eq := ns.toBool() == other.b
			return eq != neq
		}
		for _, i := range ns.idx {
			var eq bool
			if other.kind == NumberValue {
				eq = stringToNumber(ev.nodeString(i)) == other.num
			} else {
				eq = ev.nodeString(i) == ev.toString(other)
			}
			if eq != neq {
				return true
			}
		}
		return false
	}
	var eq bool
	switch {
	case l.kind == BoolValue || r.kind == BoolValue:
		eq = l.toBool() == r.toBool()
	case l.kind == NumberValue || r.kind == NumberValue:
		eq = ev.toNumber(l) == ev.toNumber(r)
	default:
		eq = ev.toString(l) == ev.toString(r)
	}
	return eq != neq
}

// compareRel mirrors the tree's compareRel with visible string-values.
func (ev *arenaEval) compareRel(l, r aValue, op string) bool {
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
	if l.kind == NodeSetValue && r.kind == NodeSetValue {
		for _, li := range l.idx {
			lf := stringToNumber(ev.nodeString(li))
			for _, ri := range r.idx {
				if !ev.visit() {
					return false
				}
				if num(lf, stringToNumber(ev.nodeString(ri))) {
					return true
				}
			}
		}
		return false
	}
	if l.kind == NodeSetValue {
		rv := ev.toNumber(r)
		for _, i := range l.idx {
			if num(stringToNumber(ev.nodeString(i)), rv) {
				return true
			}
		}
		return false
	}
	if r.kind == NodeSetValue {
		lv := ev.toNumber(l)
		for _, i := range r.idx {
			if num(lv, stringToNumber(ev.nodeString(i))) {
				return true
			}
		}
		return false
	}
	return num(ev.toNumber(l), ev.toNumber(r))
}

// evalArenaCall dispatches the core function library over arena values.
// Every function here mirrors its funcs.go counterpart (the string and
// number cores are shared).
func evalArenaCall(e *callExpr, c *arenaContext) (aValue, error) {
	args := make([]aValue, len(e.args))
	for i, a := range e.args {
		v, err := evalArena(a, c)
		if err != nil {
			return aValue{}, err
		}
		args[i] = v
	}
	ev := c.ev
	ar := ev.ar
	str := ev.toString
	switch e.name {
	case "last":
		return aNumber(float64(c.size)), nil
	case "position":
		return aNumber(float64(c.pos)), nil
	case "count":
		if args[0].kind != NodeSetValue {
			return aValue{}, fmt.Errorf("xpath: count() requires a node-set")
		}
		return aNumber(float64(len(args[0].idx))), nil
	case "name":
		i := c.node
		if len(args) == 1 {
			if args[0].kind != NodeSetValue {
				return aValue{}, fmt.Errorf("xpath: name() requires a node-set")
			}
			if len(args[0].idx) == 0 {
				return aString(""), nil
			}
			i = args[0].idx[0]
		}
		switch ar.Kind(i) {
		case dom.ElementNode, dom.AttributeNode, dom.ProcessingInstructionNode:
			return aString(ar.Name(i)), nil
		}
		return aString(""), nil
	case "id":
		return aNodeSet(ev.id(args[0])), nil
	case "string":
		if len(args) == 0 {
			return aString(ev.nodeString(c.node)), nil
		}
		return aString(str(args[0])), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(str(a))
		}
		return aString(b.String()), nil
	case "starts-with":
		return aBool(strings.HasPrefix(str(args[0]), str(args[1]))), nil
	case "contains":
		return aBool(strings.Contains(str(args[0]), str(args[1]))), nil
	case "substring-before":
		s, sep := str(args[0]), str(args[1])
		if i := strings.Index(s, sep); i >= 0 {
			return aString(s[:i]), nil
		}
		return aString(""), nil
	case "substring-after":
		s, sep := str(args[0]), str(args[1])
		if i := strings.Index(s, sep); i >= 0 {
			return aString(s[i+len(sep):]), nil
		}
		return aString(""), nil
	case "substring":
		var length float64
		bounded := len(args) == 3
		if bounded {
			length = ev.toNumber(args[2])
		}
		return aString(substringCore(str(args[0]), ev.toNumber(args[1]), length, bounded)), nil
	case "string-length":
		s := ev.nodeString(c.node)
		if len(args) == 1 {
			s = str(args[0])
		}
		return aNumber(float64(len([]rune(s)))), nil
	case "normalize-space":
		s := ev.nodeString(c.node)
		if len(args) == 1 {
			s = str(args[0])
		}
		return aString(strings.Join(strings.Fields(s), " ")), nil
	case "translate":
		return aString(translateCore(str(args[0]), str(args[1]), str(args[2]))), nil
	case "boolean":
		return aBool(args[0].toBool()), nil
	case "not":
		return aBool(!args[0].toBool()), nil
	case "true":
		return aBool(true), nil
	case "false":
		return aBool(false), nil
	case "number":
		if len(args) == 0 {
			return aNumber(stringToNumber(ev.nodeString(c.node))), nil
		}
		return aNumber(ev.toNumber(args[0])), nil
	case "sum":
		if args[0].kind != NodeSetValue {
			return aValue{}, fmt.Errorf("xpath: sum() requires a node-set")
		}
		total := 0.0
		for _, i := range args[0].idx {
			total += stringToNumber(ev.nodeString(i))
		}
		return aNumber(total), nil
	case "floor":
		return aNumber(math.Floor(ev.toNumber(args[0]))), nil
	case "ceiling":
		return aNumber(math.Ceil(ev.toNumber(args[0]))), nil
	case "round":
		return aNumber(xpathRound(ev.toNumber(args[0]))), nil
	}
	return aValue{}, fmt.Errorf("xpath: internal: unknown function %q", e.name)
}

// id mirrors fnID: the visible elements whose visible "id" attribute
// equals one of the whitespace-separated tokens of arg, found by one
// masked preorder scan of the arena.
func (ev *arenaEval) id(arg aValue) []int32 {
	var tokens []string
	if arg.kind == NodeSetValue {
		for _, i := range arg.idx {
			tokens = append(tokens, strings.Fields(ev.nodeString(i))...)
		}
	} else {
		tokens = strings.Fields(ev.toString(arg))
	}
	ar := ev.ar
	idSym, ok := ar.LookupSym("id")
	if !ok || len(tokens) == 0 {
		return nil
	}
	want := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		want[t] = true
	}
	var out []int32
	for i, end := int32(0), int32(ar.Len()); i < end && ev.visit(); {
		if !ev.visible(i) {
			i = ar.SubtreeEnd(i)
			continue
		}
		if ar.Kind(i) == dom.ElementNode {
			s, e := ar.Attrs(i)
			for a := s; a < e; a++ {
				if ar.NameSym(a) == idSym && ev.visible(a) {
					if want[string(ar.RawData(a))] {
						out = append(out, i)
					}
					break
				}
			}
		}
		i++
	}
	return out
}

// sortDedupIdx sorts an index set ascending and removes duplicates, in
// place. Ascending dense preorder indexes are document order, so this
// is the arena counterpart of sortDocOrder. The common case — inputs
// already strictly increasing, as every single-context axis sweep
// produces — is detected in one pass and returns without sorting.
func sortDedupIdx(idx []int32) []int32 {
	strictly := true
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			strictly = false
			break
		}
	}
	if strictly {
		return idx
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	out := idx[:1]
	for _, v := range idx[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// assertSortedIdx guarantees the document-order contract of the
// returned node-set: every arena construction above yields sorted sets,
// so the scan is O(n) and the sort never runs; it exists so a future
// construction that forgets to sort cannot silently break the contract
// Select and SelectIndexes document.
func assertSortedIdx(idx []int32) []int32 {
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			return sortDedupIdx(idx)
		}
	}
	return idx
}
