package xpath

import (
	"fmt"
	"math"
	"strings"

	"xmlsec/internal/dom"
)

// funcSpec describes one core-library function: its arity bounds, the
// type of its result, and its implementation. maxArgs < 0 means
// unbounded.
type funcSpec struct {
	minArgs, maxArgs int
	result           ValueKind
	fn               func(c *context, args []Value) (Value, error)
}

func (s funcSpec) arityString() string {
	switch {
	case s.maxArgs < 0:
		return fmt.Sprintf("at least %d", s.minArgs)
	case s.minArgs == s.maxArgs:
		return fmt.Sprintf("exactly %d", s.minArgs)
	default:
		return fmt.Sprintf("%d to %d", s.minArgs, s.maxArgs)
	}
}

// functions is the XPath 1.0 core function library (minus the namespace
// and variable facilities, which the paper's object language does not
// use; id() is included because DTD-typed documents support it).
var functions map[string]funcSpec

func init() {
	functions = map[string]funcSpec{
		// Node-set functions.
		"last":     {0, 0, NumberValue, fnLast},
		"position": {0, 0, NumberValue, fnPosition},
		"count":    {1, 1, NumberValue, fnCount},
		"name":     {0, 1, StringValue, fnName},
		"id":       {1, 1, NodeSetValue, fnID},

		// String functions.
		"string":           {0, 1, StringValue, fnString},
		"concat":           {2, -1, StringValue, fnConcat},
		"starts-with":      {2, 2, BoolValue, fnStartsWith},
		"contains":         {2, 2, BoolValue, fnContains},
		"substring-before": {2, 2, StringValue, fnSubstringBefore},
		"substring-after":  {2, 2, StringValue, fnSubstringAfter},
		"substring":        {2, 3, StringValue, fnSubstring},
		"string-length":    {0, 1, NumberValue, fnStringLength},
		"normalize-space":  {0, 1, StringValue, fnNormalizeSpace},
		"translate":        {3, 3, StringValue, fnTranslate},

		// Boolean functions.
		"boolean": {1, 1, BoolValue, fnBoolean},
		"not":     {1, 1, BoolValue, fnNot},
		"true":    {0, 0, BoolValue, fnTrue},
		"false":   {0, 0, BoolValue, fnFalse},

		// Number functions.
		"number":  {0, 1, NumberValue, fnNumber},
		"sum":     {1, 1, NumberValue, fnSum},
		"floor":   {1, 1, NumberValue, fnFloor},
		"ceiling": {1, 1, NumberValue, fnCeiling},
		"round":   {1, 1, NumberValue, fnRound},
	}
}

func fnLast(c *context, _ []Value) (Value, error) {
	return Number(float64(c.size)), nil
}

func fnPosition(c *context, _ []Value) (Value, error) {
	return Number(float64(c.pos)), nil
}

func fnCount(_ *context, args []Value) (Value, error) {
	if args[0].Kind != NodeSetValue {
		return Value{}, fmt.Errorf("xpath: count() requires a node-set")
	}
	return Number(float64(len(args[0].Nodes))), nil
}

func fnName(c *context, args []Value) (Value, error) {
	n := c.node
	if len(args) == 1 {
		if args[0].Kind != NodeSetValue {
			return Value{}, fmt.Errorf("xpath: name() requires a node-set")
		}
		if len(args[0].Nodes) == 0 {
			return String(""), nil
		}
		n = args[0].Nodes[0]
	}
	switch n.Type {
	case dom.ElementNode, dom.AttributeNode, dom.ProcessingInstructionNode:
		return String(n.Name), nil
	default:
		return String(""), nil
	}
}

// fnID returns the elements whose ID-typed attribute equals one of the
// whitespace-separated tokens of the argument. Without DTD type
// information at evaluation time, the conventional attribute name "id"
// is honored, which matches common practice for DTD-less documents.
func fnID(c *context, args []Value) (Value, error) {
	var tokens []string
	if args[0].Kind == NodeSetValue {
		for _, n := range args[0].Nodes {
			tokens = append(tokens, strings.Fields(NodeString(n))...)
		}
	} else {
		tokens = strings.Fields(args[0].ToString())
	}
	want := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		want[t] = true
	}
	var out []*dom.Node
	var walk func(*dom.Node)
	walk = func(n *dom.Node) {
		if n.Type == dom.ElementNode {
			if v, ok := n.Attr("id"); ok && want[v] {
				out = append(out, n)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(c.root)
	return NodeSet(sortDocOrder(out)), nil
}

func fnString(c *context, args []Value) (Value, error) {
	if len(args) == 0 {
		return String(NodeString(c.node)), nil
	}
	return String(args[0].ToString()), nil
}

func fnConcat(_ *context, args []Value) (Value, error) {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(a.ToString())
	}
	return String(b.String()), nil
}

func fnStartsWith(_ *context, args []Value) (Value, error) {
	return Boolean(strings.HasPrefix(args[0].ToString(), args[1].ToString())), nil
}

func fnContains(_ *context, args []Value) (Value, error) {
	return Boolean(strings.Contains(args[0].ToString(), args[1].ToString())), nil
}

func fnSubstringBefore(_ *context, args []Value) (Value, error) {
	s, sep := args[0].ToString(), args[1].ToString()
	if i := strings.Index(s, sep); i >= 0 {
		return String(s[:i]), nil
	}
	return String(""), nil
}

func fnSubstringAfter(_ *context, args []Value) (Value, error) {
	s, sep := args[0].ToString(), args[1].ToString()
	if i := strings.Index(s, sep); i >= 0 {
		return String(s[i+len(sep):]), nil
	}
	return String(""), nil
}

// fnSubstring implements XPath's 1-based, rounding substring semantics
// over characters (runes), including the notorious NaN/Infinity cases.
func fnSubstring(_ *context, args []Value) (Value, error) {
	var length float64
	bounded := len(args) == 3
	if bounded {
		length = args[2].ToNumber()
	}
	return String(substringCore(args[0].ToString(), args[1].ToNumber(), length, bounded)), nil
}

// substringCore is the value-independent body of substring(), shared
// with the arena evaluator.
func substringCore(s string, startArg, lengthArg float64, bounded bool) string {
	start := xpathRound(startArg)
	end := math.Inf(1)
	if bounded {
		end = start + xpathRound(lengthArg)
	}
	var b strings.Builder
	for i, r := range []rune(s) {
		pos := float64(i + 1)
		if pos >= start && pos < end {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func fnStringLength(c *context, args []Value) (Value, error) {
	s := NodeString(c.node)
	if len(args) == 1 {
		s = args[0].ToString()
	}
	return Number(float64(len([]rune(s)))), nil
}

func fnNormalizeSpace(c *context, args []Value) (Value, error) {
	s := NodeString(c.node)
	if len(args) == 1 {
		s = args[0].ToString()
	}
	return String(strings.Join(strings.Fields(s), " ")), nil
}

func fnTranslate(_ *context, args []Value) (Value, error) {
	return String(translateCore(args[0].ToString(), args[1].ToString(), args[2].ToString())), nil
}

// translateCore is the value-independent body of translate(), shared
// with the arena evaluator.
func translateCore(s, fromArg, toArg string) string {
	from := []rune(fromArg)
	to := []rune(toArg)
	m := make(map[rune]rune, len(from))
	del := make(map[rune]bool)
	for i, r := range from {
		if _, seen := m[r]; seen || del[r] {
			continue
		}
		if i < len(to) {
			m[r] = to[i]
		} else {
			del[r] = true
		}
	}
	var b strings.Builder
	for _, r := range s {
		if del[r] {
			continue
		}
		if rep, ok := m[r]; ok {
			b.WriteRune(rep)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func fnBoolean(_ *context, args []Value) (Value, error) {
	return Boolean(args[0].ToBool()), nil
}

func fnNot(_ *context, args []Value) (Value, error) {
	return Boolean(!args[0].ToBool()), nil
}

func fnTrue(_ *context, _ []Value) (Value, error) { return Boolean(true), nil }

func fnFalse(_ *context, _ []Value) (Value, error) { return Boolean(false), nil }

func fnNumber(c *context, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(stringToNumber(NodeString(c.node))), nil
	}
	return Number(args[0].ToNumber()), nil
}

func fnSum(_ *context, args []Value) (Value, error) {
	if args[0].Kind != NodeSetValue {
		return Value{}, fmt.Errorf("xpath: sum() requires a node-set")
	}
	total := 0.0
	for _, n := range args[0].Nodes {
		total += stringToNumber(NodeString(n))
	}
	return Number(total), nil
}

func fnFloor(_ *context, args []Value) (Value, error) {
	return Number(math.Floor(args[0].ToNumber())), nil
}

func fnCeiling(_ *context, args []Value) (Value, error) {
	return Number(math.Ceil(args[0].ToNumber())), nil
}

func fnRound(_ *context, args []Value) (Value, error) {
	return Number(xpathRound(args[0].ToNumber())), nil
}

// xpathRound rounds half toward positive infinity, per XPath 1.0.
func xpathRound(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return f
	}
	return math.Floor(f + 0.5)
}
