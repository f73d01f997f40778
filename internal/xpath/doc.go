// Package xpath implements the fragment of the W3C XPath 1.0 language
// that the paper adopts for naming authorization objects (Section 4):
// absolute and relative location paths, the abbreviated syntax (/, //,
// ., .., @), the navigation axes (child, descendant, descendant-or-self,
// parent, ancestor, ancestor-or-self, self, attribute, following-sibling,
// preceding-sibling), node tests, positional and boolean predicates, the
// union operator, and the XPath 1.0 core function library.
//
// Expressions are compiled once (Compile) and evaluated many times,
// natively over a document's arena — optionally restricted to a view's
// visibility mask and always within a node-visit budget (SelectArena) —
// or over DOM trees, the differential oracle (Select). The security
// processor compiles the path expression of every authorization when
// the authorization is loaded.
package xpath
