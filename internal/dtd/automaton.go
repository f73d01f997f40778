package dtd

// Content models are validated by compiling each children content model
// into a Glushkov position automaton: every NameParticle occurrence in
// the model becomes a position, and the model's first/follow/last sets
// define an NFA whose alphabet is the set of child element names. XML's
// determinism constraint would make the NFA a DFA, but we simulate the
// NFA with position sets so non-deterministic models also validate
// correctly (useful for loosened DTDs, whose rewritten models need not
// stay deterministic).

type automaton struct {
	names    []string // symbol (element name) of each position
	first    []int    // positions reachable from the start
	follow   [][]int  // follow[i] = positions reachable after position i
	last     []bool   // last[i]: position i may end a match
	nullable bool     // the empty sequence matches
}

// compile builds the Glushkov automaton for a particle tree.
func compile(model *Particle) *automaton {
	a := &automaton{}
	info := a.build(model)
	a.first = info.first
	a.nullable = info.nullable
	a.last = make([]bool, len(a.names))
	for _, i := range info.last {
		a.last[i] = true
	}
	return a
}

type glushkov struct {
	nullable    bool
	first, last []int
}

func (a *automaton) build(p *Particle) glushkov {
	var g glushkov
	switch p.Kind {
	case NameParticle:
		pos := len(a.names)
		a.names = append(a.names, p.Name)
		a.follow = append(a.follow, nil)
		g = glushkov{first: []int{pos}, last: []int{pos}}
	case ChoiceParticle:
		for _, c := range p.Children {
			cg := a.build(c)
			g.nullable = g.nullable || cg.nullable
			g.first = append(g.first, cg.first...)
			g.last = append(g.last, cg.last...)
		}
	case SeqParticle:
		g.nullable = true
		started := false
		for _, c := range p.Children {
			cg := a.build(c)
			// Everything that can end the sequence so far is followed
			// by everything that can start c.
			for _, l := range g.last {
				a.follow[l] = append(a.follow[l], cg.first...)
			}
			if !started {
				g.first = cg.first
				started = true
			} else if g.nullable {
				g.first = append(g.first, cg.first...)
			}
			if cg.nullable {
				g.last = append(g.last, cg.last...)
			} else {
				g.last = cg.last
			}
			g.nullable = g.nullable && cg.nullable
		}
	}
	switch p.Occ {
	case Opt:
		g.nullable = true
	case Star, Plus:
		for _, l := range g.last {
			a.follow[l] = append(a.follow[l], g.first...)
		}
		if p.Occ == Star {
			g.nullable = true
		}
	}
	return g
}

// matchState is the scratch of a match: the active and next position
// sets, and a mark per position stamped with the step that added it,
// so a set is deduplicated without being cleared. One validation
// reuses it for every element; it grows to the largest automaton.
type matchState struct {
	cur, next []int
	mark      []uint32
	step      uint32
}

// matches reports whether the sequence of child element names is
// accepted by the content model, and on failure, the index of the first
// offending child (len(seq) if the sequence ended too early).
func (a *automaton) matches(seq []string, st *matchState) (bool, int) {
	if len(st.mark) < len(a.names) {
		st.mark = make([]uint32, len(a.names))
		st.step = 0
	}
	cur := st.cur[:0]
	for idx, sym := range seq {
		st.step++
		if st.step == 0 { // wrapped: no stale stamp may equal a new one
			clear(st.mark)
			st.step = 1
		}
		next := st.next[:0]
		if idx == 0 {
			next = a.advance(next, a.first, sym, st)
		} else {
			for _, pos := range cur {
				next = a.advance(next, a.follow[pos], sym, st)
			}
		}
		st.cur, st.next = next, cur
		if len(next) == 0 {
			return false, idx
		}
		cur = next
	}
	if len(seq) == 0 {
		return a.nullable, 0
	}
	for _, pos := range cur {
		if a.last[pos] {
			return true, 0
		}
	}
	return false, len(seq)
}

// advance appends to next the positions among cands that read sym and
// are not in next yet.
func (a *automaton) advance(next, cands []int, sym string, st *matchState) []int {
	for _, f := range cands {
		if a.names[f] == sym && st.mark[f] != st.step {
			st.mark[f] = st.step
			next = append(next, f)
		}
	}
	return next
}

// automatonFor returns the compiled automaton for e, building it on
// first use. ElementDecl values are not safe for concurrent first use;
// callers that share a DTD across goroutines should call
// (*DTD).CompileAll once after parsing.
func (e *ElementDecl) automatonFor() *automaton {
	if e.auto == nil && e.Kind == ElementContent {
		e.auto = compile(e.Model)
	}
	return e.auto
}

// CompileAll eagerly compiles every children content model in the DTD,
// making the DTD safe for concurrent validation.
func (d *DTD) CompileAll() {
	for _, e := range d.Elements {
		if e.Kind == ElementContent {
			e.automatonFor()
		}
	}
}

// AcceptsSequence reports whether the declared content model of element
// name accepts the given sequence of child element names. Undeclared
// elements accept nothing; ANY accepts everything; EMPTY accepts only
// the empty sequence; mixed content accepts any sequence over its
// declared names.
func (d *DTD) AcceptsSequence(name string, children []string) bool {
	e := d.Element(name)
	if e == nil {
		return false
	}
	switch e.Kind {
	case EmptyContent:
		return len(children) == 0
	case AnyContent:
		for _, c := range children {
			if d.Element(c) == nil {
				return false
			}
		}
		return true
	case MixedContent:
		allowed := make(map[string]bool, len(e.Mixed))
		for _, m := range e.Mixed {
			allowed[m] = true
		}
		for _, c := range children {
			if !allowed[c] {
				return false
			}
		}
		return true
	case ElementContent:
		ok, _ := e.automatonFor().matches(children, &matchState{})
		return ok
	}
	return false
}
