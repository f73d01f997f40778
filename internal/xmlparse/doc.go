// Package xmlparse implements an XML 1.0 parser that writes documents
// straight into dom arenas (through dom.Builder) and parses DTDs.
//
// The standard library's encoding/xml is a streaming tokenizer that
// neither parses DTD subsets nor exposes attribute defaulting, both of
// which the paper's security processor requires (documents must be valid
// with respect to their DTD, schema-level authorizations attach to the
// DTD, and the loosening transformation rewrites it). This parser covers
// the XML 1.0 logical structure: prolog, DOCTYPE with internal subset
// (and external subset through a Loader), elements, attributes,
// character data, CDATA sections, comments, processing instructions,
// character references, and internal general entities. Namespaces are
// out of scope, as in the paper.
package xmlparse
