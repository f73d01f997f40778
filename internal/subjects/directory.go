package subjects

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Directory is the server-local registry of users and groups. Groups do
// not need to be disjoint and can be nested (a group can be a member of
// other groups), forming a DAG over user/group identifiers.
//
// One group name may be designated as the public group (conventionally
// "Public", as in the paper's examples); every user — including ones the
// directory has never seen, such as "anonymous" — is implicitly a member.
type Directory struct {
	users  map[string]*userEntry
	groups map[string]*groupEntry

	// PublicGroup is the name of the group every requester belongs to;
	// empty disables the convention. NewDirectory sets it to "Public".
	PublicGroup string

	// gen changes whenever the membership graph changes, so caches
	// derived from memberships (the class index) can invalidate.
	gen atomic.Uint64

	// closure caches every group's transitive memberships for one
	// generation, so MemberOf answers a nested membership with map
	// lookups instead of a search.
	closure atomic.Pointer[groupClosure]
}

// groupClosure maps every group to the set of groups it is a member of,
// directly or through nesting, as of directory generation gen.
type groupClosure struct {
	gen uint64
	up  map[string]map[string]bool
}

type userEntry struct {
	name   string
	groups map[string]bool // direct memberships
}

type groupEntry struct {
	name    string
	parents map[string]bool // groups this group is a direct member of
}

// NewDirectory returns an empty directory with PublicGroup = "Public".
func NewDirectory() *Directory {
	return &Directory{
		users:       make(map[string]*userEntry),
		groups:      make(map[string]*groupEntry),
		PublicGroup: "Public",
	}
}

// AddGroup declares a group, optionally as a member of parent groups.
// Parents are declared implicitly if unknown. Adding an existing group
// extends its parent set. A refused call leaves the directory as it
// was: every check that can fail runs before the first change, and a
// membership cycle, which only the changed graph shows, undoes exactly
// what the call added.
func (d *Directory) AddGroup(name string, parents ...string) error {
	if name == "" {
		return fmt.Errorf("subjects: empty group name")
	}
	if _, isUser := d.users[name]; isUser {
		return fmt.Errorf("subjects: %q is already a user", name)
	}
	for _, p := range parents {
		switch _, isUser := d.users[p]; {
		case p == "":
			return fmt.Errorf("subjects: empty group name")
		case p == name:
			return fmt.Errorf("subjects: group %q cannot be a member of itself", name)
		case isUser:
			return fmt.Errorf("subjects: %q is already a user", p)
		}
	}
	var added []string // groups this call declared, name first if new
	g := d.groups[name]
	if g == nil {
		g = &groupEntry{name: name, parents: make(map[string]bool)}
		d.groups[name] = g
		added = append(added, name)
	}
	var edges []string // parent edges this call added
	for _, p := range parents {
		if d.groups[p] == nil {
			d.groups[p] = &groupEntry{name: p, parents: make(map[string]bool)}
			added = append(added, p)
		}
		if !g.parents[p] {
			g.parents[p] = true
			edges = append(edges, p)
		}
	}
	if d.wouldCycle(name) {
		for _, p := range edges {
			delete(g.parents, p)
		}
		for _, n := range added {
			delete(d.groups, n)
		}
		return fmt.Errorf("subjects: adding group %q creates a membership cycle", name)
	}
	d.gen.Add(1)
	return nil
}

// Generation returns a counter that changes whenever the user/group
// membership graph changes. Caches of membership-derived state (notably
// the authorization-equivalence class index) key on it so a directory
// change invalidates them, exactly as store generations invalidate
// document views.
func (d *Directory) Generation() uint64 { return d.gen.Load() }

func (d *Directory) wouldCycle(start string) bool {
	seen := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(string) bool
	visit = func(g string) bool {
		switch seen[g] {
		case 1:
			return true
		case 2:
			return false
		}
		seen[g] = 1
		if e := d.groups[g]; e != nil {
			for p := range e.parents {
				if visit(p) {
					return true
				}
			}
		}
		seen[g] = 2
		return false
	}
	return visit(start)
}

// AddUser declares a user with direct memberships in the given groups.
// Unknown groups are declared implicitly. Adding an existing user
// extends its membership set. A refused call leaves the directory as it
// was: every check that can fail runs before the first change.
func (d *Directory) AddUser(name string, groups ...string) error {
	if name == "" {
		return fmt.Errorf("subjects: empty user name")
	}
	if _, isGroup := d.groups[name]; isGroup {
		return fmt.Errorf("subjects: %q is already a group", name)
	}
	for _, g := range groups {
		switch _, isUser := d.users[g]; {
		case g == "":
			return fmt.Errorf("subjects: empty group name")
		case isUser || g == name:
			return fmt.Errorf("subjects: %q is already a user", g)
		}
	}
	u := d.users[name]
	if u == nil {
		u = &userEntry{name: name, groups: make(map[string]bool)}
		d.users[name] = u
	}
	for _, g := range groups {
		if d.groups[g] == nil {
			d.groups[g] = &groupEntry{name: g, parents: make(map[string]bool)}
		}
		u.groups[g] = true
	}
	d.gen.Add(1)
	return nil
}

// HasUser reports whether the user is declared.
func (d *Directory) HasUser(name string) bool {
	_, ok := d.users[name]
	return ok
}

// HasGroup reports whether the group is declared.
func (d *Directory) HasGroup(name string) bool {
	_, ok := d.groups[name]
	return ok
}

// Users returns the declared user names, sorted.
func (d *Directory) Users() []string {
	out := make([]string, 0, len(d.users))
	for n := range d.users {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Groups returns the declared group names, sorted.
func (d *Directory) Groups() []string {
	out := make([]string, 0, len(d.groups))
	for n := range d.groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemberOf reports whether identifier member is a member of identifier
// container in the reflexive-transitive sense used by the ASH order:
// every identifier is a member of itself; a user is a member of the
// groups it belongs to, directly or through nested groups; and every
// identifier is a member of the public group.
func (d *Directory) MemberOf(member, container string) bool {
	if member == container {
		return true
	}
	if d.PublicGroup != "" && container == d.PublicGroup {
		return true
	}
	var direct map[string]bool
	if u := d.users[member]; u != nil {
		direct = u.groups
	} else if g := d.groups[member]; g != nil {
		direct = g.parents
	} else {
		return false
	}
	if direct[container] {
		return true
	}
	// A nested membership: some direct group is, transitively, a member
	// of container. The closure answers without allocating; the engine
	// asks once per authorization on every view miss.
	up := d.groupClosure().up
	for g := range direct {
		if up[g][container] {
			return true
		}
	}
	return false
}

// groupClosure returns the transitive group memberships of the current
// generation, computing them on the first call after a change. The
// directory is only mutated before it is shared (configuration load),
// so concurrent readers at most compute the same closure twice.
func (d *Directory) groupClosure() *groupClosure {
	gen := d.gen.Load()
	if c := d.closure.Load(); c != nil && c.gen == gen {
		return c
	}
	c := &groupClosure{gen: gen, up: make(map[string]map[string]bool, len(d.groups))}
	// The membership graph is acyclic (AddGroup refuses cycles), so the
	// memoized depth-first visit terminates.
	var visit func(g string) map[string]bool
	visit = func(g string) map[string]bool {
		if s, ok := c.up[g]; ok {
			return s
		}
		s := make(map[string]bool)
		if e := d.groups[g]; e != nil {
			for p := range e.parents {
				s[p] = true
				for q := range visit(p) {
					s[q] = true
				}
			}
		}
		c.up[g] = s
		return s
	}
	for g := range d.groups {
		visit(g)
	}
	d.closure.Store(c)
	return c
}

// DirectGroups returns the direct memberships of a user or group,
// sorted; nil if the identifier is unknown.
func (d *Directory) DirectGroups(name string) []string {
	var m map[string]bool
	if u := d.users[name]; u != nil {
		m = u.groups
	} else if g := d.groups[name]; g != nil {
		m = g.parents
	} else {
		return nil
	}
	out := make([]string, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
