package xpath_test

import (
	"fmt"

	"xmlsec/internal/xmlparse"
	"xmlsec/internal/xpath"
)

func ExampleCompile() {
	res, _ := xmlparse.Parse(
		`<laboratory><project type="public"><manager>Bob</manager></project></laboratory>`,
		xmlparse.Options{})
	p, _ := xpath.Compile(`//project[./@type="public"]/manager`)
	nodes, _ := p.SelectDoc(res.Doc)
	for _, n := range nodes {
		fmt.Println(n.Text())
	}
	// Output:
	// Bob
}

func ExamplePath_Eval() {
	res, _ := xmlparse.Parse(
		`<cart><item price="3"/><item price="4"/></cart>`,
		xmlparse.Options{})
	p, _ := xpath.Compile(`sum(//item/@price)`)
	v, _ := p.Eval(res.Doc.ReadTree().Node)
	fmt.Println(v.ToNumber())
	// Output:
	// 7
}
