package dom

import (
	"bytes"
	"encoding/binary"
)

// arenaWriter serializes an arena through a visibility mask — the only
// masked serializer. Output is byte-identical to the pointer-tree
// serializer (writeNode) on the document the mask materializes
// (Document.CloneMasked) — the differential tests and FuzzArenaParity
// pin this — but character data is copied straight out of the arena's
// pre-escaped spans instead of being re-escaped per request, and
// indentation comes from one growable pad instead of per-line
// strings.Repeat allocations. With copy set, a fully visible element
// subtree is one copy of its span in the arena's rendering.
type arenaWriter struct {
	a      *Arena
	w      *errWriter
	indent string
	mask   Bitmask
	pad    []byte
	copy   *rendering

	// rec is set only while the rendering itself is written into a
	// bytes.Buffer: each element's span is recorded from the buffer's
	// length before and after it.
	rec *rendering

	// refs is set only while a ViewText is written: a subtree copied
	// from the rendering is recorded there as a reference instead.
	refs *bytes.Buffer
}

// writeContent emits the arena's top-level children (the prolog
// comments/PIs and the document element), mirroring Document.Write's
// body loop. copySpans lets a masked write under ServeIndent copy fully
// visible subtrees out of the arena's rendering; the caller sets it
// only for an arena its document caches, so the rendering is built
// once per document version rather than once per write. With refs set
// (a ViewText write), those subtrees are recorded as references; the
// rendering they point into is returned.
func (a *Arena) writeContent(w *errWriter, opts WriteOptions, copySpans bool, refs *bytes.Buffer) *rendering {
	s := arenaWriter{a: a, w: w, indent: opts.Indent, mask: opts.Mask, refs: refs}
	if copySpans && opts.Mask != nil && opts.Indent == ServeIndent {
		s.copy = a.rendering()
	}
	for c := a.FirstChild(0); c >= 0; c = a.nextSibling[c] {
		if !s.mask.VisibleIdx(c) {
			continue
		}
		s.node(c, 0, s.siblingEnd(c, int32(len(a.kind))))
		if s.indent != "" {
			w.str("\n")
		}
	}
	return s.copy
}

// writeIndent emits depth copies of the indent unit.
func (s *arenaWriter) writeIndent(depth int) {
	need := depth * len(s.indent)
	for len(s.pad) < need {
		s.pad = append(s.pad, s.indent...)
	}
	s.w.bytes(s.pad[:need])
}

// hasElementContent mirrors the tree serializer's pretty-print guard:
// the mask-visible children must be exclusively elements, comments and
// PIs (plus whitespace-only text) for indentation to be safe.
func (s *arenaWriter) hasElementContent(i int32) bool {
	a := s.a
	any := false
	for c := a.FirstChild(i); c >= 0; c = a.nextSibling[c] {
		if !s.mask.VisibleIdx(c) {
			continue
		}
		switch a.kind[c] {
		case TextNode, CDATANode:
			if len(bytes.TrimSpace(a.RawData(c))) != 0 {
				return false
			}
		case ElementNode, CommentNode, ProcessingInstructionNode:
			any = true
		}
	}
	return any
}

// siblingEnd returns SubtreeEnd(c) for a child whose parent's subtree
// ends at parentEnd, in O(1): the next sibling's index, or for a last
// child the parent's end. Only span copies need it.
func (s *arenaWriter) siblingEnd(c, parentEnd int32) int32 {
	if s.copy == nil {
		return 0
	}
	if ns := s.a.nextSibling[c]; ns >= 0 {
		return ns
	}
	return parentEnd
}

// recordStart opens element i's span while the rendering is written.
func (s *arenaWriter) recordStart(i int32) {
	if s.rec != nil {
		s.rec.spans[s.rec.elems.rank(i)].off = uint32(s.w.buf.Len())
	}
}

// recordEnd closes element i's span while the rendering is written.
func (s *arenaWriter) recordEnd(i int32) {
	if s.rec != nil {
		sp := &s.rec.spans[s.rec.elems.rank(i)]
		sp.n = uint32(s.w.buf.Len()) - sp.off
	}
}

// ref records element i's rendered subtree as a reference at the
// current end of the literal (see ViewText). When the literal written
// since the previous reference is exactly the rendering's bytes between
// the two spans, the previous reference is extended over both instead:
// fully visible siblings, and subtrees separated only by tags the view
// shows whole, become one reference.
func (s *arenaWriter) ref(i int32) {
	sp := s.copy.spans[s.copy.elems.rank(i)]
	lit := s.w.buf.Bytes()
	if r := s.refs.Bytes(); len(r) > 0 {
		last := r[len(r)-refSize:]
		at, off := binary.LittleEndian.Uint32(last), binary.LittleEndian.Uint32(last[4:])
		end := off + binary.LittleEndian.Uint32(last[8:])
		if sp.off >= end && bytes.Equal(lit[at:], s.copy.buf[end:sp.off]) {
			s.w.buf.Truncate(int(at))
			binary.LittleEndian.PutUint32(last[8:], sp.off+sp.n-off)
			return
		}
	}
	var r [refSize]byte
	binary.LittleEndian.PutUint32(r[:], uint32(len(lit)))
	binary.LittleEndian.PutUint32(r[4:], sp.off)
	binary.LittleEndian.PutUint32(r[8:], sp.n)
	s.refs.Write(r[:])
}

// node serializes the mask-visible subtree rooted at index i, whose
// subtree ends at end (tracked only when copying spans). The caller has
// already established that i itself is visible.
func (s *arenaWriter) node(i int32, depth int, end int32) {
	a, w := s.a, s.w
	switch a.kind[i] {
	case ElementNode:
		if s.copy != nil && s.mask.allSet(int(i), int(end)) {
			if s.refs != nil {
				s.ref(i)
			} else {
				w.bytes(s.copy.span(i))
			}
			return
		}
		s.recordStart(i)
		w.str("<")
		w.str(a.Name(i))
		for at := i + 1; at < a.attrEnd[i]; at++ {
			if !s.mask.VisibleIdx(at) {
				continue
			}
			w.str(" ")
			w.str(a.Name(at))
			w.str(`="`)
			w.bytes(a.escData(at))
			w.str(`"`)
		}
		empty := true
		for c := a.FirstChild(i); c >= 0; c = a.nextSibling[c] {
			if s.mask.VisibleIdx(c) {
				empty = false
				break
			}
		}
		if empty {
			w.str("/>")
			s.recordEnd(i)
			return
		}
		w.str(">")
		pretty := s.indent != "" && s.hasElementContent(i)
		for c := a.FirstChild(i); c >= 0; c = a.nextSibling[c] {
			if !s.mask.VisibleIdx(c) {
				continue
			}
			if pretty {
				if a.kind[c] == TextNode && len(bytes.TrimSpace(a.RawData(c))) == 0 {
					continue
				}
				w.str("\n")
				s.writeIndent(depth + 1)
			}
			s.node(c, depth+1, s.siblingEnd(c, end))
		}
		if pretty {
			w.str("\n")
			s.writeIndent(depth)
		}
		w.str("</")
		w.str(a.Name(i))
		w.str(">")
		s.recordEnd(i)
	case TextNode, CDATANode:
		// The escaped text (or the complete pre-rendered CDATA section);
		// emit it verbatim.
		w.bytes(a.escData(i))
	case CommentNode:
		w.str("<!--")
		w.bytes(a.escData(i))
		w.str("-->")
	case ProcessingInstructionNode:
		w.str("<?")
		w.str(a.Name(i))
		if a.raw[i].n > 0 {
			w.str(" ")
			w.bytes(a.escData(i))
		}
		w.str("?>")
	case AttributeNode:
		w.str(a.Name(i))
		w.str(`="`)
		w.bytes(a.escData(i))
		w.str(`"`)
	case DocumentNode:
		for c := a.FirstChild(i); c >= 0; c = a.nextSibling[c] {
			if s.mask.VisibleIdx(c) {
				s.node(c, depth, s.siblingEnd(c, end))
			}
		}
	}
}
