package dom

import (
	"encoding/binary"
	"io"
	"strings"
)

// ViewText is a masked write of a document that does not copy what the
// document's rendering already holds. It keeps the bytes only the view
// has — the tags of partly visible elements, their visible attributes
// and character data, indentation, the prolog — and, for each fully
// visible element subtree, a reference to that subtree's span in the
// arena's rendering; adjacent references merge when the bytes between
// them are the rendering's own. Pruning only removes nodes, so on a
// typical view most of the text is such spans. Its bytes (Len, WriteTo,
// String) are exactly what Document.Write emits under the same options;
// FuzzViewTextParity pins this.
//
// The literal and the references share one allocation. The rendering
// belongs to the document and is shared by every view of it.
//
// A ViewText is immutable: readers may share it across goroutines. It
// keeps the document's rendering alive.
type ViewText struct {
	// data is the literal followed by one refSize-byte reference per
	// run of the rendering, in output order. A reference is three
	// little-endian uint32s: the offset in the literal the run is
	// inserted at, then the run's offset and length in the rendering.
	data []byte
	lit  int    // the literal's length: data[:lit]
	n    int    // the text's length
	src  []byte // the rendering the references point into
}

// refSize is the encoded size of one ViewText reference.
const refSize = 12

// ViewText returns what Write writes under opts, as a ViewText. Under
// ServeIndent and a mask, on a document that keeps its arena, fully
// visible subtrees are references into the arena's rendering (built on
// first use); any other text is all literal.
func (d *Document) ViewText(opts WriteOptions) ViewText {
	lit, refs := GetBuffer(0), GetBuffer(0)
	defer PutBuffer(lit)
	defer PutBuffer(refs)
	src := d.write(newErrWriter(lit), opts, refs)
	t := ViewText{data: make([]byte, lit.Len()+refs.Len()), lit: lit.Len(), n: lit.Len()}
	copy(t.data, lit.Bytes())
	copy(t.data[t.lit:], refs.Bytes())
	if refs.Len() > 0 {
		t.src = src.buf
		for r := refs.Bytes(); len(r) > 0; r = r[refSize:] {
			t.n += int(binary.LittleEndian.Uint32(r[8:]))
		}
	}
	return t
}

// Len returns the length of the text in bytes.
func (t ViewText) Len() int { return t.n }

// Resident returns the bytes the text holds of its own: its literal and
// its references, not the rendering they point into.
func (t ViewText) Resident() int { return cap(t.data) }

// WriteTo writes the text to w: the literal runs and the referenced
// runs of the rendering in order, one Write each.
func (t ViewText) WriteTo(w io.Writer) (int64, error) {
	var n int64
	lit, prev := t.data[:t.lit], 0
	for r := t.data[t.lit:]; len(r) > 0; r = r[refSize:] {
		at := int(binary.LittleEndian.Uint32(r))
		off := binary.LittleEndian.Uint32(r[4:])
		end := off + binary.LittleEndian.Uint32(r[8:])
		if at > prev {
			m, err := w.Write(lit[prev:at])
			n += int64(m)
			if err != nil {
				return n, err
			}
			prev = at
		}
		m, err := w.Write(t.src[off:end])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	m, err := w.Write(lit[prev:])
	return n + int64(m), err
}

// String returns the text as a string, in one allocation.
func (t ViewText) String() string {
	var b strings.Builder
	b.Grow(t.n)
	_, _ = t.WriteTo(&b)
	return b.String()
}
