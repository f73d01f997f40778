package dom

// Sym is an interned name: an index into the owning Arena's symbol
// table. Element tag names, attribute names and processing-instruction
// targets repeat heavily within one document (a 10k-node document
// typically has a few dozen distinct names), so the arena stores one
// int32 per node instead of one string header, and name equality is an
// integer comparison. Sym 0 is always the empty string.
type Sym int32

// symTab interns the distinct names of one arena. It is built once at
// arena construction and read-only afterwards, so concurrent readers
// need no lock.
type symTab struct {
	names []string
	index map[string]Sym
}

func newSymTab() *symTab {
	return &symTab{names: []string{""}, index: map[string]Sym{"": 0}}
}

// intern returns the symbol for name, adding it on first use.
func (t *symTab) intern(name string) Sym {
	if s, ok := t.index[name]; ok {
		return s
	}
	s := Sym(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = s
	return s
}

// name returns the string for symbol s.
func (t *symTab) name(s Sym) string { return t.names[s] }
