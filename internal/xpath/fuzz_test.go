package xpath

import (
	"testing"

	"xmlsec/internal/xmlparse"
)

// FuzzCompileEval: arbitrary expression text must never panic, neither
// at compile time nor when evaluated against a small document; accepted
// expressions must also re-compile from their canonical form.
func FuzzCompileEval(f *testing.F) {
	seeds := []string{
		`/a/b/c`,
		`//x[@k="v"][2]`,
		`count(//a) + 1 div 0`,
		`a | b | //c/@d`,
		`//a[contains(.,'x') and position()<last()]`,
		`substring('abcde', 1.5, 2.6)`,
		`-(-3) * 4 mod 5`,
		`..//.`,
		`][`,
		`(((`,
		`foo(bar(baz()))`,
		`/a[`,
		`@@`,
		`1.2.3`,
		`ancestor-or-self::*[1]/self::node()`,
		`processing-instruction('t')`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	res := xmlparse.MustParse(`<a k="v"><b>x</b><c><b>y</b></c></a>`, xmlparse.Options{})
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Compile(expr)
		if err != nil {
			return
		}
		// Evaluation may fail (type errors) but must not panic.
		_, _ = p.Eval(res.Doc.ReadTree().Node)
		// The canonical form must re-compile.
		if _, err := Compile(p.String()); err != nil {
			t.Fatalf("canonical form %q of %q does not re-compile: %v", p.String(), expr, err)
		}
	})
}
