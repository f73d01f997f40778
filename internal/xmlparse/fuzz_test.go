package xmlparse_test

import (
	"errors"
	"strings"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/xmlparse"
)

// parseSeeds are the inputs both parser fuzzers start from: well-formed
// documents with every kind of node, and the usual ways to be malformed.
var parseSeeds = []string{
	`<a/>`,
	`<a x="1"><b>t</b><!--c--><?p d?><![CDATA[e]]></a>`,
	`<?xml version="1.0"?><!DOCTYPE a [<!ENTITY e "v"><!ELEMENT a ANY>]><a>&e;&#65;</a>`,
	`<a><b></a></b>`,
	`<a x="1" x="2"/>`,
	`<a>&bogus;</a>`,
	`<a><![CDATA[unterminated`,
	`<a b="<"/>`,
	strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50),
	`<!DOCTYPE a SYSTEM "x.dtd"><a/>`,
	"<a>\xff\xfe</a>",
	`<a>]]></a>`,
}

// FuzzParse exercises the parser on arbitrary inputs: it must never
// panic, and anything it accepts must serialize and re-parse to the
// same tree (the parser and serializer agree on what XML is).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		opts := xmlparse.Options{KeepWhitespace: true, KeepComments: true}
		res, err := xmlparse.Parse(input, opts)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := res.Doc.String()
		res2, err := xmlparse.Parse(out, opts)
		if err != nil {
			t.Fatalf("serialized output does not re-parse: %v\ninput: %q\noutput: %q", err, input, out)
		}
		if out2 := res2.Doc.String(); out != out2 {
			t.Fatalf("serialization not stable:\nfirst:  %q\nsecond: %q", out, out2)
		}
	})
}

// paritySubset is prepended to the input when the fuzzer's mode asks
// for it: attribute defaults for elements a and b, and an entity whose
// replacement text holds a newline and markup.
const paritySubset = `<!DOCTYPE a [<!ENTITY e "t&#10;<b k='1'>&#10;x</b>">` +
	`<!ATTLIST a d CDATA "dv" f CDATA #FIXED "fv"><!ATTLIST b d CDATA "bd">]>`

// FuzzParserParity is the differential oracle for the run scanner: the
// reference parser in refparser_test.go (the character-at-a-time
// scanner it replaced) must make the same accept/reject decision, report
// the same SyntaxError line, column and message, and produce the same
// serialization and arena. The mode byte selects KeepWhitespace,
// KeepComments, ApplyDefaults and a prepended internal subset. The one
// intended difference is the MaxDepth bound, which the reference lacks.
func FuzzParserParity(f *testing.F) {
	seeds := append([]string{
		"<a>\r\n<b x='1\r\n2'>t\r\nu</b>\r\n</a>",
		"<a>\r\n<b>\r\n</a>",
		"<é><ñame_1 xé='v'>t</ñame_1></é>",
		"<a>x]y]]z]</a>",
		"<a>]</a>",
		"<a>]]</a>",
		`<!DOCTYPE a [<!ENTITY e "x&#10;<b>&#10;y</b>">]><a>&e;</a>`,
		`<!DOCTYPE a [<!ENTITY e "x&#10;<b>&#10;">]><a>&e;</a>`,
		"<a>\n<b>\n</a>",
		"<a x='1\n<'/>",
		`<a>t<!--c-->u&amp;v<?p?>w</a>`,
		`<a i="1" j="2" k="3" l="4" m="5" n="6" o="7" p="8" q="9" i="10"/>`,
		`<b/>`,
		`<a><b/>&e;</a>`,
	}, parseSeeds...)
	for i, s := range seeds {
		f.Add(s, uint8(i))
	}
	f.Fuzz(func(t *testing.T, input string, mode uint8) {
		opts := xmlparse.Options{
			KeepWhitespace: mode&1 != 0,
			KeepComments:   mode&2 != 0,
			ApplyDefaults:  mode&4 != 0,
		}
		if mode&8 != 0 {
			input = paritySubset + input
		}
		got, gotErr := xmlparse.Parse(input, opts)
		want, wantErr := refParse(input, opts)
		var se *xmlparse.SyntaxError
		if errors.As(gotErr, &se) && strings.Contains(se.Msg, "nesting exceeds") {
			if wantErr == nil && depth(want.Doc.Node) <= xmlparse.MaxDepth {
				t.Fatalf("depth bound rejected a document %d levels deep: %v", depth(want.Doc.Node), gotErr)
			}
			return
		}
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("accept/reject differs:\nscanner:   %v\nreference: %v\ninput: %q", gotErr, wantErr, input)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("errors differ:\nscanner:   %v\nreference: %v\ninput: %q", gotErr, wantErr, input)
			}
			var wse *xmlparse.SyntaxError
			if errors.As(gotErr, &se) != errors.As(wantErr, &wse) {
				t.Fatalf("error types differ: %T vs %T", gotErr, wantErr)
			}
			return
		}
		if g, w := got.Doc.String(), want.Doc.String(); g != w {
			t.Fatalf("serializations differ:\nscanner:   %q\nreference: %q\ninput: %q", g, w, input)
		}
		if (got.DTD == nil) != (want.DTD == nil) || got.DTD != nil && got.DTD.String() != want.DTD.String() {
			t.Fatalf("DTDs differ for input %q", input)
		}
		checkArenaStructure(t, want.Doc, got.Doc.ReadArena())
	})
}

// depth is the element nesting depth below n.
func depth(n *dom.Node) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, depth(c))
	}
	if n.Type == dom.ElementNode {
		d++
	}
	return d
}
