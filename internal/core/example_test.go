package core_test

import (
	"fmt"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/subjects"
	"xmlsec/internal/xmlparse"
)

// ExampleEngine_ComputeView shows the minimal end-to-end flow: parse a
// document, declare subjects, install authorizations, compute a view.
func ExampleEngine_ComputeView() {
	res, _ := xmlparse.Parse(
		`<report><summary>totals ok</summary><detail>secret numbers</detail></report>`,
		xmlparse.Options{})

	dir := subjects.NewDirectory()
	_ = dir.AddUser("eve")

	store := authz.NewStore()
	_ = store.Add(authz.InstanceLevel, authz.MustParse(
		`<<Public,*,*>,report.xml:/report/summary,read,+,R>`))

	eng := core.NewEngine(dir, store)
	view, _ := eng.ComputeView(core.Request{
		Requester: subjects.Requester{User: "eve", IP: "10.0.0.5"},
		URI:       "report.xml",
	}, res.Doc)

	fmt.Println(view.XMLIndent("  "))
	// Output:
	// <report>
	//   <summary>totals ok</summary>
	// </report>
}

// ExampleEngine_ComputeView_exception shows the paper's signature
// pattern: a recursive grant with a more specific recursive denial
// carving out an exception, resolved by "most specific object takes
// precedence".
func ExampleEngine_ComputeView_exception() {
	res, _ := xmlparse.Parse(
		`<doc><public>a</public><mixed><ok>b</ok><no>c</no></mixed></doc>`,
		xmlparse.Options{})
	dir := subjects.NewDirectory()
	_ = dir.AddUser("u")
	store := authz.NewStore()
	_ = store.Add(authz.InstanceLevel, authz.MustParse(`<<Public,*,*>,d.xml:/doc,read,+,R>`))
	_ = store.Add(authz.InstanceLevel, authz.MustParse(`<<Public,*,*>,d.xml:/doc/mixed/no,read,-,R>`))

	eng := core.NewEngine(dir, store)
	view, _ := eng.ComputeView(core.Request{
		Requester: subjects.Requester{User: "u", IP: "10.0.0.5"},
		URI:       "d.xml",
	}, res.Doc)

	fmt.Println(view.XMLIndent("  "))
	// Output:
	// <doc>
	//   <public>a</public>
	//   <mixed>
	//     <ok>b</ok>
	//   </mixed>
	// </doc>
}

// ExampleView_Query runs an XPath query against a requester's view:
// protected content is invisible to queries by construction.
func ExampleView_Query() {
	res, _ := xmlparse.Parse(
		`<list><item level="open">pen</item><item level="secret">launch code</item></list>`,
		xmlparse.Options{})
	dir := subjects.NewDirectory()
	_ = dir.AddUser("u")
	store := authz.NewStore()
	_ = store.Add(authz.InstanceLevel, authz.MustParse(
		`<<Public,*,*>,l.xml://item[@level="open"],read,+,R>`))
	eng := core.NewEngine(dir, store)
	view, _ := eng.ComputeView(core.Request{
		Requester: subjects.Requester{User: "u", IP: "10.0.0.5"},
		URI:       "l.xml",
	}, res.Doc)

	matches, _ := view.Query("//item")
	for _, i := range matches {
		fmt.Println(view.Node(i).Text())
	}
	// Output:
	// pen
}
