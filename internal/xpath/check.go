package xpath

import "fmt"

// TypeError reports a well-formed expression that cannot evaluate
// without a type error wherever it is applied: for example count(1),
// whose argument is not a node-set, or count(//a) where a node-set is
// required.
type TypeError struct {
	Expr string
	Msg  string
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("xpath: %q: %s", e.Expr, e.Msg)
}

// CheckNodeSet reports, without evaluating anything, whether the
// expression can select a node-set: it returns a *TypeError when the
// result is not a node-set or when some sub-expression applies a
// node-set operation (a path step, a predicate, '|', count(), sum(),
// name()) to a value that is not one. Without variables every XPath 1.0
// expression's type is fixed by its syntax, so the check is exact: an
// expression that passes never fails evaluation with a type error.
//
// Evaluation itself is lazier — a mistyped operand in a branch that
// never runs (false() and count(1)) does not fail it — so CheckNodeSet
// is for callers that want client mistakes rejected before any work,
// such as the /query/ endpoint.
func (p *Path) CheckNodeSet() error {
	k, msg := staticKind(p.expr)
	if msg == "" && k != NodeSetValue {
		msg = fmt.Sprintf("evaluates to a %s, not a node-set", kindName(k))
	}
	if msg != "" {
		return &TypeError{Expr: p.src, Msg: msg}
	}
	return nil
}

// staticKind returns the type e evaluates to, or a non-empty message
// naming the first type error inside e.
func staticKind(e Expr) (ValueKind, string) {
	switch x := e.(type) {
	case *pathExpr:
		if x.filter != nil {
			k, msg := staticKind(x.filter)
			if msg != "" {
				return 0, msg
			}
			if k != NodeSetValue {
				if len(x.steps) == 0 {
					return k, ""
				}
				return 0, fmt.Sprintf("cannot apply path steps to a %s", kindName(k))
			}
		}
		for i := range x.steps {
			if msg := checkAll(x.steps[i].Preds); msg != "" {
				return 0, msg
			}
		}
		return NodeSetValue, ""
	case *filterExpr:
		k, msg := staticKind(x.x)
		if msg != "" {
			return 0, msg
		}
		if k != NodeSetValue {
			return 0, fmt.Sprintf("predicates require a node-set, got %s", kindName(k))
		}
		return NodeSetValue, checkAll(x.preds)
	case *binaryExpr:
		lk, msg := staticKind(x.l)
		if msg != "" {
			return 0, msg
		}
		rk, msg := staticKind(x.r)
		if msg != "" {
			return 0, msg
		}
		switch x.op {
		case "|":
			if lk != NodeSetValue || rk != NodeSetValue {
				return 0, "operands of '|' must be node-sets"
			}
			return NodeSetValue, ""
		case "+", "-", "*", "div", "mod":
			return NumberValue, ""
		}
		return BoolValue, ""
	case *negExpr:
		_, msg := staticKind(x.x)
		return NumberValue, msg
	case *literalExpr:
		return StringValue, ""
	case *numberExpr:
		return NumberValue, ""
	case *callExpr:
		for i, a := range x.args {
			k, msg := staticKind(a)
			if msg != "" {
				return 0, msg
			}
			if i == 0 && k != NodeSetValue {
				switch x.name {
				case "count", "sum", "name":
					return 0, fmt.Sprintf("%s() requires a node-set", x.name)
				}
			}
		}
		return functions[x.name].result, ""
	}
	return 0, fmt.Sprintf("unknown expression %T", e)
}

// checkAll type-checks predicates, which may be of any type.
func checkAll(preds []Expr) string {
	for _, p := range preds {
		if _, msg := staticKind(p); msg != "" {
			return msg
		}
	}
	return ""
}
