package xpath

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Path is a compiled XPath expression, safe for concurrent use.
type Path struct {
	src  string
	expr Expr

	// Arena-evaluation plan, built lazily on first use (see arena.go):
	// the distinct names the node tests mention, and a last-arena cache
	// resolving those names to interned symbols.
	namesOnce sync.Once
	names     []string
	arenaSyms atomic.Pointer[arenaSymCache]
}

// Source returns the original expression text.
func (p *Path) Source() string { return p.src }

// String returns a canonical rendering of the compiled expression with
// all abbreviations expanded, useful for diagnostics.
func (p *Path) String() string { return p.expr.String() }

// Compile parses an XPath expression.
func Compile(src string) (*Path, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	pp := &exprParser{src: src, toks: toks}
	e, err := pp.parseExpr()
	if err != nil {
		return nil, err
	}
	if pp.cur().kind != tokEOF {
		return nil, pp.errf("unexpected %s", pp.cur())
	}
	return &Path{src: src, expr: e}, nil
}

// MustCompile is Compile for known-good expressions; it panics on error.
func MustCompile(src string) *Path {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

type exprParser struct {
	src  string
	toks []token
	i    int
}

func (p *exprParser) cur() token  { return p.toks[p.i] }
func (p *exprParser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *exprParser) accept(k tokenKind) bool {
	if p.cur().kind == k {
		p.i++
		return true
	}
	return false
}

func (p *exprParser) errf(format string, args ...any) error {
	return &SyntaxError{Expr: p.src, Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// parseExpr parses OrExpr, the grammar root.
func (p *exprParser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOr) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.accept(tokAnd) {
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseEquality() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().kind {
		case tokEq:
			op = "="
		case tokNeq:
			op = "!="
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: op, l: l, r: r}
	}
}

func (p *exprParser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().kind {
		case tokLt:
			op = "<"
		case tokLte:
			op = "<="
		case tokGt:
			op = ">"
		case tokGte:
			op = ">="
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: op, l: l, r: r}
	}
}

func (p *exprParser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: op, l: l, r: r}
	}
}

func (p *exprParser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.cur().kind == tokStar && p.cur().text == "*":
			op = "*"
		case p.cur().kind == tokDiv:
			op = "div"
		case p.cur().kind == tokMod:
			op = "mod"
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: op, l: l, r: r}
	}
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.accept(tokMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negExpr{x: x}, nil
	}
	return p.parseUnion()
}

func (p *exprParser) parseUnion() (Expr, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		r, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "|", l: l, r: r}
	}
	return l, nil
}

// parsePath parses a PathExpr: a location path, or a filter expression
// optionally followed by / or // and a relative location path.
func (p *exprParser) parsePath() (Expr, error) {
	switch p.cur().kind {
	case tokSlash, tokDoubleSlash:
		return p.parseLocationPath(nil, false)
	case tokLiteral:
		t := p.next()
		return &literalExpr{s: t.text}, nil
	case tokNumber:
		t := p.next()
		return &numberExpr{f: t.num}, nil
	case tokDollar:
		return nil, p.errf("variable references are not supported")
	case tokLParen:
		p.i++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tokRParen) {
			return nil, p.errf("expected ')'")
		}
		return p.parsePostfix(e)
	case tokFunc:
		if isNodeTypeName(p.cur().text) {
			// text(), node() etc. start a relative location path.
			return p.parseLocationPath(nil, true)
		}
		call, err := p.parseCall()
		if err != nil {
			return nil, err
		}
		return p.parsePostfix(call)
	default:
		return p.parseLocationPath(nil, true)
	}
}

// parsePostfix attaches filter predicates and trailing /steps to a
// primary expression: FilterExpr := Primary Predicate* ("/" | "//")
// RelativeLocationPath.
func (p *exprParser) parsePostfix(primary Expr) (Expr, error) {
	if p.cur().kind == tokLBracket {
		fe := &filterExpr{x: primary}
		for p.accept(tokLBracket) {
			pred, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.accept(tokRBracket) {
				return nil, p.errf("expected ']'")
			}
			fe.preds = append(fe.preds, pred)
		}
		primary = fe
	}
	if p.cur().kind != tokSlash && p.cur().kind != tokDoubleSlash {
		return primary, nil
	}
	return p.parseLocationPath(primary, false)
}

func isNodeTypeName(n string) bool {
	switch n {
	case "text", "comment", "processing-instruction", "node":
		return true
	}
	return false
}

// parseLocationPath parses a location path. filter, if non-nil, is the
// primary expression the path applies to. relative indicates the parser
// is already positioned at the first step.
func (p *exprParser) parseLocationPath(filter Expr, relative bool) (Expr, error) {
	path := &pathExpr{filter: filter}
	if !relative {
		switch p.cur().kind {
		case tokSlash:
			p.i++
			if filter == nil {
				path.absolute = true
			}
			if !p.startsStep() {
				if filter == nil {
					return path, nil // bare "/" selects the root
				}
				return nil, p.errf("expected step after '/'")
			}
		case tokDoubleSlash:
			p.i++
			if filter == nil {
				path.absolute = true
			}
			path.steps = append(path.steps, descendantOrSelfStep())
		}
	}
	for {
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.steps = append(path.steps, st)
		switch p.cur().kind {
		case tokSlash:
			p.i++
		case tokDoubleSlash:
			p.i++
			path.steps = append(path.steps, descendantOrSelfStep())
		default:
			return path, nil
		}
	}
}

func descendantOrSelfStep() Step {
	return Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}}
}

func (p *exprParser) startsStep() bool {
	switch p.cur().kind {
	case tokName, tokStar, tokAt, tokDot, tokDotDot, tokAxis, tokFunc:
		return p.cur().kind != tokFunc || isNodeTypeName(p.cur().text)
	}
	return false
}

// parseStep parses one location step, including abbreviations.
func (p *exprParser) parseStep() (Step, error) {
	var st Step
	switch p.cur().kind {
	case tokDot:
		p.i++
		st = Step{Axis: AxisSelf, Test: NodeTest{Kind: TestNode}}
		return st, nil // abbreviations take no predicates in XPath 1.0
	case tokDotDot:
		p.i++
		st = Step{Axis: AxisParent, Test: NodeTest{Kind: TestNode}}
		return st, nil
	case tokAt:
		p.i++
		st.Axis = AxisAttribute
	case tokAxis:
		name := p.next().text
		ax, ok := axisNames[name]
		if !ok {
			return st, p.errf("unsupported axis %q", name)
		}
		st.Axis = ax
	default:
		st.Axis = AxisChild
	}
	if err := p.parseNodeTest(&st); err != nil {
		return st, err
	}
	for p.cur().kind == tokLBracket {
		p.i++
		pred, err := p.parseExpr()
		if err != nil {
			return st, err
		}
		if !p.accept(tokRBracket) {
			return st, p.errf("expected ']'")
		}
		st.Preds = append(st.Preds, pred)
	}
	return st, nil
}

func (p *exprParser) parseNodeTest(st *Step) error {
	switch p.cur().kind {
	case tokStar:
		p.i++
		st.Test = NodeTest{Kind: TestAny}
		return nil
	case tokName:
		st.Test = NodeTest{Kind: TestName, Name: p.next().text}
		return nil
	case tokFunc:
		name := p.next().text
		if !p.accept(tokLParen) {
			return p.errf("expected '(' after %q", name)
		}
		switch name {
		case "text":
			st.Test = NodeTest{Kind: TestText}
		case "comment":
			st.Test = NodeTest{Kind: TestComment}
		case "node":
			st.Test = NodeTest{Kind: TestNode}
		case "processing-instruction":
			st.Test = NodeTest{Kind: TestPI}
			if p.cur().kind == tokLiteral {
				st.Test.Name = p.next().text
			}
		default:
			return p.errf("%q is not a node test", name)
		}
		if !p.accept(tokRParen) {
			return p.errf("expected ')' in node test")
		}
		return nil
	default:
		return p.errf("expected node test, found %s", p.cur())
	}
}

func (p *exprParser) parseCall() (Expr, error) {
	name := p.next().text
	if !p.accept(tokLParen) {
		return nil, p.errf("expected '(' after function name %q", name)
	}
	call := &callExpr{name: name}
	if p.accept(tokRParen) {
		return call, checkArity(p, call)
	}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.args = append(call.args, arg)
		if p.accept(tokComma) {
			continue
		}
		if p.accept(tokRParen) {
			return call, checkArity(p, call)
		}
		return nil, p.errf("expected ',' or ')' in arguments of %q", name)
	}
}

func checkArity(p *exprParser, call *callExpr) error {
	spec, ok := functions[call.name]
	if !ok {
		return p.errf("unknown function %q", call.name)
	}
	n := len(call.args)
	if n < spec.minArgs || (spec.maxArgs >= 0 && n > spec.maxArgs) {
		return p.errf("function %q called with %d argument(s), wants %s", call.name, n, spec.arityString())
	}
	return nil
}
