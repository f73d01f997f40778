package dom

import "math/bits"

// Bitmask is a visibility mask over the nodes of one document, indexed
// by the dense preorder index Renumber assigns (Node.Order, also
// exposed as Node.Index). A set bit means the node is part of the view.
//
// Masks are the materialization-free representation of the paper's
// pruned views: instead of deep-copying the tree and cutting denied
// subtrees, the security engine computes one bit per node and the
// serializer walks the shared original emitting only mask-visible
// nodes. A mask is only meaningful for the document (and numbering
// generation) it was computed from; documents are renumbered on every
// update, so stale masks must be discarded with their docGen.
//
// A Bitmask is immutable after construction by convention: readers may
// share it freely across goroutines as long as no Set races them.
type Bitmask []uint64

// NewBitmask returns a mask able to address indexes [0, n).
func NewBitmask(n int) Bitmask {
	return make(Bitmask, (n+63)/64)
}

// Set marks index i visible. Out-of-range indexes panic (a mask is
// always allocated for the full document).
func (m Bitmask) Set(i int) {
	m[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports whether index i is visible. Out-of-range indexes are
// invisible, so a zero-length mask is the empty view.
func (m Bitmask) Get(i int) bool {
	if w := i >> 6; w >= 0 && w < len(m) {
		return m[w]&(1<<(uint(i)&63)) != 0
	}
	return false
}

// SetRange marks every index in [lo, hi) visible, a word at a time:
// with a preorder subtree's interval [i, Arena.SubtreeEnd(i)) it shows
// the whole subtree at once. An empty range is a no-op; out-of-range
// indexes panic, as with Set.
func (m Bitmask) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		m[lw] |= first & last
		return
	}
	m[lw] |= first
	for w := lw + 1; w < hw; w++ {
		m[w] = ^uint64(0)
	}
	m[hw] |= last
}

// Count returns the number of visible indexes.
func (m Bitmask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountRange returns the number of visible indexes in [lo, hi); a nil
// mask counts every index. With a preorder subtree's index interval
// [i, Arena.SubtreeEnd(i)) it is the size of the subtree the view shows.
func (m Bitmask) CountRange(lo, hi int) int {
	if m == nil {
		return hi - lo
	}
	hi = min(hi, len(m)*64)
	if lo >= hi {
		return 0
	}
	lw, hw := lo>>6, (hi-1)>>6
	first := m[lw] &^ (1<<(uint(lo)&63) - 1)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		return bits.OnesCount64(first & last)
	}
	n := bits.OnesCount64(first) + bits.OnesCount64(m[hw]&last)
	for _, w := range m[lw+1 : hw] {
		n += bits.OnesCount64(w)
	}
	return n
}

// allSet reports whether every index in [lo, hi) is visible, stopping
// at the first word with a hidden index; a nil mask shows everything.
// It is CountRange(lo, hi) == hi-lo without counting the whole range.
func (m Bitmask) allSet(lo, hi int) bool {
	if m == nil || lo >= hi {
		return true
	}
	if hi > len(m)*64 {
		return false
	}
	lw, hw := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		return m[lw]&first&last == first&last
	}
	if m[lw]&first != first || m[hw]&last != last {
		return false
	}
	for _, w := range m[lw+1 : hw] {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// Visible reports whether node n is visible under the mask. A nil mask
// means "everything visible", which lets fully materialized documents
// and masked views share code paths.
func (m Bitmask) Visible(n *Node) bool {
	return m == nil || m.Get(n.Order)
}

// VisibleIdx is Visible for a dense preorder index (the arena sweeps'
// addressing mode): a nil mask means everything visible.
func (m Bitmask) VisibleIdx(i int32) bool {
	return m == nil || m.Get(int(i))
}
