package subjects

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func testDir(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddGroup("Staff"))
	must(d.AddGroup("CS", "Staff")) // CS ⊆ Staff
	must(d.AddGroup("Admin", "CS")) // Admin ⊆ CS ⊆ Staff
	must(d.AddGroup("Foreign"))
	must(d.AddUser("tom", "Foreign"))
	must(d.AddUser("sam", "Admin"))
	must(d.AddUser("ada", "CS", "Foreign"))
	must(d.AddUser("solo"))
	return d
}

func TestMemberOf(t *testing.T) {
	d := testDir(t)
	cases := []struct {
		member, container string
		want              bool
	}{
		{"tom", "tom", true},     // reflexive
		{"tom", "Foreign", true}, // direct
		{"sam", "Admin", true},   // direct
		{"sam", "CS", true},      // transitive
		{"sam", "Staff", true},   // transitive, depth 2
		{"tom", "Staff", false},
		{"Admin", "Staff", true},  // group in group
		{"Staff", "Admin", false}, // not symmetric
		{"ada", "Foreign", true},  // multiple memberships
		{"ada", "Staff", true},
		{"solo", "Staff", false},
		{"anyone", "Public", true}, // public group catches everyone
		{"ghost", "Staff", false},  // unknown member
		{"tom", "Ghosts", false},   // unknown container
	}
	for _, c := range cases {
		if got := d.MemberOf(c.member, c.container); got != c.want {
			t.Errorf("MemberOf(%s, %s) = %v, want %v", c.member, c.container, got, c.want)
		}
	}
}

// memberOfBySearch is the depth-first search MemberOf ran before the
// closure: the reference the closure is checked against.
func memberOfBySearch(d *Directory, member, container string) bool {
	if member == container || (d.PublicGroup != "" && container == d.PublicGroup) {
		return true
	}
	var stack []string
	if u := d.users[member]; u != nil {
		for g := range u.groups {
			stack = append(stack, g)
		}
	} else if g := d.groups[member]; g != nil {
		for p := range g.parents {
			stack = append(stack, p)
		}
	}
	seen := map[string]bool{}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g == container {
			return true
		}
		if seen[g] {
			continue
		}
		seen[g] = true
		if e := d.groups[g]; e != nil {
			for p := range e.parents {
				stack = append(stack, p)
			}
		}
	}
	return false
}

// TestMemberOfMatchesSearch holds the membership closure to a plain
// graph search on random nested group DAGs, including after the
// directory changes under a closure already computed.
func TestMemberOfMatchesSearch(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory()
		check := func() {
			ids := append(d.Users(), d.Groups()...)
			for _, m := range ids {
				for _, c := range ids {
					if got, want := d.MemberOf(m, c), memberOfBySearch(d, m, c); got != want {
						t.Fatalf("seed %d: MemberOf(%s, %s) = %v, search says %v", seed, m, c, got, want)
					}
				}
			}
		}
		for round := 0; round < 3; round++ {
			for g := 0; g < 8; g++ {
				// Parents only among lower-numbered groups: acyclic.
				name := fmt.Sprintf("g%d", g)
				var parents []string
				for p := 0; p < g; p++ {
					if rng.Intn(4) == 0 {
						parents = append(parents, fmt.Sprintf("g%d", p))
					}
				}
				if err := d.AddGroup(name, parents...); err != nil {
					t.Fatal(err)
				}
			}
			for u := 0; u < 6; u++ {
				if err := d.AddUser(fmt.Sprintf("u%d", u), fmt.Sprintf("g%d", rng.Intn(8))); err != nil {
					t.Fatal(err)
				}
			}
			check()
		}
	}
}

// TestMemberOfNestedAllocatesNothing pins the view-miss cost of a
// nested membership test: once the directory's closure is built, a
// user whose direct groups are themselves members of groups is checked
// against a container — hit or miss — without allocating.
func TestMemberOfNestedAllocatesNothing(t *testing.T) {
	d := testDir(t)
	d.MemberOf("sam", "Staff") // builds the closure
	if n := testing.AllocsPerRun(200, func() {
		if !d.MemberOf("sam", "Staff") || !d.MemberOf("ada", "Staff") || d.MemberOf("sam", "Foreign") {
			t.Fatal("wrong membership answer")
		}
	}); n != 0 {
		t.Errorf("a nested membership test allocates %.0f times, want 0", n)
	}
}

// TestMemberOfConcurrentFirstUse has many requests race to build the
// closure of a freshly loaded directory, as the first view misses after
// a configuration load do; run under -race.
func TestMemberOfConcurrentFirstUse(t *testing.T) {
	d := testDir(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if !d.MemberOf("sam", "Staff") || d.MemberOf("tom", "Staff") {
					t.Error("wrong membership answer")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDirectoryErrors(t *testing.T) {
	d := testDir(t)
	if err := d.AddUser(""); err == nil {
		t.Error("empty user name should fail")
	}
	if err := d.AddGroup(""); err == nil {
		t.Error("empty group name should fail")
	}
	if err := d.AddUser("Staff"); err == nil {
		t.Error("user with a group's name should fail")
	}
	if err := d.AddGroup("tom"); err == nil {
		t.Error("group with a user's name should fail")
	}
	if err := d.AddGroup("Loop", "Loop"); err == nil {
		t.Error("self-membership should fail")
	}
	if err := d.AddGroup("A2", "B2"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddGroup("B2", "A2"); err == nil {
		t.Error("membership cycle should fail")
	}
}

// TestRefusedAddGroupLeavesDirectoryUnchanged: a refused AddGroup
// changes neither the declared groups nor any membership, and does not
// move the generation. The two refusals that run after the call has
// started changing the graph are covered: a parent that closes a cycle
// on an existing group (which used to delete the group, and with it
// every membership through it), and a parent that is a user, named
// after parents the call had already linked.
func TestRefusedAddGroupLeavesDirectoryUnchanged(t *testing.T) {
	type state struct {
		gen    uint64
		groups string
		member map[[2]string]bool
	}
	capture := func(d *Directory) state {
		st := state{gen: d.Generation(), groups: strings.Join(d.Groups(), ","), member: map[[2]string]bool{}}
		for _, x := range append(d.Users(), d.Groups()...) {
			for _, g := range d.Groups() {
				st.member[[2]string{x, g}] = d.MemberOf(x, g)
			}
		}
		return st
	}
	cases := []struct {
		name    string
		parents []string
	}{
		{"cycle through an existing group", []string{"B"}},
		{"cycle after a new parent", []string{"Z", "B"}},
		{"user parent after a new parent", []string{"Z", "u"}},
		{"user parent after an existing parent", []string{"B2", "u"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDirectory()
			for _, step := range []error{
				d.AddGroup("A", "P"),
				d.AddUser("u", "A"),
				d.AddGroup("B", "A"),
				d.AddGroup("B2"),
			} {
				if step != nil {
					t.Fatal(step)
				}
			}
			before := capture(d)
			if err := d.AddGroup("A", tc.parents...); err == nil {
				t.Fatalf("AddGroup(A, %v) accepted", tc.parents)
			}
			after := capture(d)
			if after.gen != before.gen || after.groups != before.groups || !maps.Equal(after.member, before.member) {
				t.Errorf("refused AddGroup changed the directory: groups %s -> %s, generation %d -> %d",
					before.groups, after.groups, before.gen, after.gen)
			}
			if !d.MemberOf("u", "P") {
				t.Error("u lost its membership in P")
			}
		})
	}
	t.Run("refused new group is not declared", func(t *testing.T) {
		d := NewDirectory()
		if err := d.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		before := capture(d)
		if err := d.AddGroup("C", "Q", "u"); err == nil {
			t.Fatal("a user accepted as a parent group")
		}
		if after := capture(d); after.groups != before.groups || after.gen != before.gen {
			t.Errorf("refused AddGroup declared groups: %q -> %q", before.groups, after.groups)
		}
	})
}

// TestRefusedAddUserLeavesDirectoryUnchanged: a refused AddUser
// declares neither the user nor any group it names, and records no
// membership, even when the refused group comes after ones the call
// could have declared.
func TestRefusedAddUserLeavesDirectoryUnchanged(t *testing.T) {
	cases := []struct {
		name   string
		groups []string
	}{
		{"user as group after a new group", []string{"G1", "tom"}},
		{"empty group after a new group", []string{"G1", ""}},
		{"itself as group", []string{"G1", "u"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDirectory()
			if err := d.AddUser("tom"); err != nil {
				t.Fatal(err)
			}
			gen := d.Generation()
			if err := d.AddUser("u", tc.groups...); err == nil {
				t.Fatalf("AddUser(u, %q) accepted", tc.groups)
			}
			if d.HasUser("u") || d.HasGroup("G1") || d.MemberOf("u", "G1") {
				t.Errorf("refused AddUser changed the directory: users %q, groups %q", d.Users(), d.Groups())
			}
			if d.Generation() != gen {
				t.Errorf("refused AddUser moved the generation %d -> %d", gen, d.Generation())
			}
		})
	}
}

func TestDirectoryListing(t *testing.T) {
	d := testDir(t)
	if got := len(d.Users()); got != 4 {
		t.Errorf("Users() = %d, want 4", got)
	}
	if got := len(d.Groups()); got != 4 {
		t.Errorf("Groups() = %d, want 4", got)
	}
	if !d.HasUser("tom") || d.HasUser("Staff") {
		t.Error("HasUser wrong")
	}
	if !d.HasGroup("Staff") || d.HasGroup("tom") {
		t.Error("HasGroup wrong")
	}
	gs := d.DirectGroups("ada")
	if len(gs) != 2 || gs[0] != "CS" || gs[1] != "Foreign" {
		t.Errorf("DirectGroups(ada) = %v", gs)
	}
	if d.DirectGroups("nobody") != nil {
		t.Error("DirectGroups of unknown should be nil")
	}
}

func TestSubjectLeq(t *testing.T) {
	d := testDir(t)
	h := Hierarchy{Dir: d}
	leq := func(a, b string) bool {
		sa, err := ParseSubject(a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := ParseSubject(b)
		if err != nil {
			t.Fatal(err)
		}
		return h.Leq(sa, sb)
	}
	cases := []struct {
		a, b string
		want bool
	}{
		{"<sam,150.100.30.8,tweety.lab.com>", "<Admin,*,*>", true},
		{"<sam,150.100.30.8,tweety.lab.com>", "<Staff,150.100.*,*.lab.com>", true},
		{"<sam,150.100.30.8,tweety.lab.com>", "<Staff,151.*,*>", false},
		{"<sam,150.100.30.8,tweety.lab.com>", "<Staff,*,*.it>", false},
		{"<tom,1.2.3.4,h.x.it>", "<Public,*,*.it>", true},
		{"<tom,1.2.3.4,h.x.it>", "<Admin,*,*>", false},
		{"<Admin,*,*>", "<Staff,*,*>", true},
		{"<Admin,150.*,*.it>", "<Admin,*,*>", true},
		{"<Admin,*,*>", "<Admin,150.*,*>", false},
	}
	for _, c := range cases {
		if got := leq(c.a, c.b); got != c.want {
			t.Errorf("%s ≤ %s = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStrictlyLessAndEqual(t *testing.T) {
	h := Hierarchy{Dir: testDir(t)}
	a := MustNewSubject("sam", "1.2.3.4", "h.lab.com")
	b := MustNewSubject("Admin", "*", "*")
	if !h.StrictlyLess(a, b) || h.StrictlyLess(b, a) {
		t.Error("StrictlyLess direction wrong")
	}
	if h.StrictlyLess(a, a) {
		t.Error("StrictlyLess must be irreflexive")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal wrong")
	}
}

func TestRequesterSubject(t *testing.T) {
	r := Requester{User: "tom", IP: "130.100.50.8", Host: "infosys.bld1.it"}
	s, err := r.Subject()
	if err != nil {
		t.Fatal(err)
	}
	if s.UG != "tom" || !s.IP.IsConcrete() || !s.SN.IsConcrete() {
		t.Errorf("subject = %v", s)
	}
	// Missing user becomes anonymous; missing host matches only '*'.
	s, err = (Requester{IP: "1.2.3.4"}).Subject()
	if err != nil || s.UG != "anonymous" {
		t.Errorf("anonymous subject wrong: %v %v", s, err)
	}
	if _, err := (Requester{User: "x", IP: "1.2.*"}).Subject(); err == nil {
		t.Error("pattern IP in requester should fail")
	}
	if _, err := (Requester{User: "x", IP: "1.2.3.4", Host: "*.it"}).Subject(); err == nil {
		t.Error("pattern host in requester should fail")
	}
	if _, err := (Requester{User: "x", IP: "bogus"}).Subject(); err == nil {
		t.Error("bad IP should fail")
	}
}

func TestAppliesTo(t *testing.T) {
	h := Hierarchy{Dir: testDir(t)}
	rq := Requester{User: "sam", IP: "150.100.30.8", Host: "tweety.lab.com"}
	cases := []struct {
		subject string
		want    bool
	}{
		{"<Admin,*,*>", true},
		{"<Staff,150.*,*.lab.com>", true},
		{"<sam,150.100.30.8,tweety.lab.com>", true},
		{"<Foreign,*,*>", false},
		{"<Admin,151.*,*>", false},
		{"<Admin,*,*.it>", false},
		{"<Public,*,*>", true},
	}
	for _, c := range cases {
		s, err := ParseSubject(c.subject)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.AppliesTo(s, rq)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("AppliesTo(%s, %s) = %v, want %v", c.subject, rq, got, c.want)
		}
	}
	// Unresolvable host: only the universal symbolic pattern applies.
	noHost := Requester{User: "sam", IP: "150.100.30.8"}
	s, _ := ParseSubject("<Admin,*,*.lab.com>")
	if ok, _ := h.AppliesTo(s, noHost); ok {
		t.Error("host-restricted authorization should not apply without reverse resolution")
	}
	s, _ = ParseSubject("<Admin,*,*>")
	if ok, _ := h.AppliesTo(s, noHost); !ok {
		t.Error("universal symbolic pattern should apply without reverse resolution")
	}
}

func TestMostSpecific(t *testing.T) {
	h := Hierarchy{Dir: testDir(t)}
	subs := []Subject{
		MustNewSubject("Staff", "*", "*"),
		MustNewSubject("Admin", "*", "*"),     // < Staff
		MustNewSubject("sam", "*", "*"),       // < Admin
		MustNewSubject("Foreign", "*", "*"),   // incomparable with the others
		MustNewSubject("Admin", "150.*", "*"), // < Admin,*,* (incomparable with sam,*,*)
	}
	got := MostSpecific(h, subs, func(s Subject) Subject { return s })
	// Survivors: sam,*,*; Foreign,*,*; Admin,150.*,*.
	if len(got) != 3 {
		t.Fatalf("MostSpecific kept %d, want 3: %v", len(got), got)
	}
	names := map[string]bool{}
	for _, s := range got {
		names[s.String()] = true
	}
	for _, want := range []string{"<sam,*,*>", "<Foreign,*,*>", "<Admin,150.*,*>"} {
		if !names[want] {
			t.Errorf("survivor %s missing from %v", want, got)
		}
	}
	// Equal subjects never dominate each other.
	dup := []Subject{MustNewSubject("Staff", "*", "*"), MustNewSubject("Staff", "*", "*")}
	if got := MostSpecific(h, dup, func(s Subject) Subject { return s }); len(got) != 2 {
		t.Errorf("equal subjects should both survive, got %d", len(got))
	}
}

func TestParseSubjectErrors(t *testing.T) {
	for _, bad := range []string{"", "<a,b>", "a,b,c,d", "<,1.2.3.4,*>", "<u,999.1.1.1,*>", "<u,*,a..b>"} {
		if _, err := ParseSubject(bad); err == nil {
			t.Errorf("ParseSubject(%q) should fail", bad)
		}
	}
	s, err := ParseSubject(" <Admin, 150.100.* , *.lab.com> ")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "<Admin,150.100.*,*.lab.com>" {
		t.Errorf("round trip = %s", s)
	}
}

func TestRequesterString(t *testing.T) {
	r := Requester{User: "tom", IP: "1.2.3.4", Host: "h.it"}
	if r.String() != "tom@1.2.3.4(h.it)" {
		t.Errorf("String = %s", r)
	}
	r.Host = ""
	if r.String() != "tom@1.2.3.4(?)" {
		t.Errorf("String = %s", r)
	}
}

// TestMostSpecificProperties (property-based): the survivors of
// MostSpecific are mutually incomparable, and every discarded element
// is strictly dominated by some survivor.
func TestMostSpecificProperties(t *testing.T) {
	d := testDir(t)
	h := Hierarchy{Dir: d}
	users := []string{"tom", "sam", "ada", "solo", "Staff", "CS", "Admin", "Foreign", "Public"}
	ips := []string{"*", "150.*", "150.100.*", "150.100.30.8", "10.0.0.1"}
	sns := []string{"*", "*.com", "*.lab.com", "tweety.lab.com", "x.y.it"}
	gen := func(seed int) []Subject {
		var out []Subject
		n := 2 + seed%6
		for i := 0; i < n; i++ {
			k := seed*31 + i*17
			out = append(out, MustNewSubject(
				users[k%len(users)],
				ips[(k/7)%len(ips)],
				sns[(k/13)%len(sns)],
			))
		}
		return out
	}
	id := func(s Subject) Subject { return s }
	for seed := 0; seed < 50; seed++ {
		in := gen(seed)
		out := MostSpecific(h, in, id)
		if len(out) == 0 {
			t.Fatalf("seed %d: MostSpecific returned empty for non-empty input", seed)
		}
		for i, a := range out {
			for j, b := range out {
				if i != j && h.StrictlyLess(a, b) {
					t.Fatalf("seed %d: survivors not incomparable: %s < %s", seed, a, b)
				}
			}
		}
		for _, x := range in {
			kept := false
			for _, s := range out {
				if s.Equal(x) {
					kept = true
					break
				}
			}
			if kept {
				continue
			}
			dominated := false
			for _, s := range out {
				if h.StrictlyLess(s, x) {
					dominated = true
					break
				}
			}
			// The dominator may itself have been discarded in favor of
			// something even more specific; check against the whole
			// input as a fallback.
			if !dominated {
				for _, y := range in {
					if h.StrictlyLess(y, x) {
						dominated = true
						break
					}
				}
			}
			if !dominated {
				t.Fatalf("seed %d: %s discarded but not dominated", seed, x)
			}
		}
	}
}
