package subjects

import (
	"fmt"
	"strings"
)

// Subject is an element of the authorization subject hierarchy
// ASH = UG × IP × SN (Definition 1): a user or group identifier paired
// with a numeric and a symbolic location pattern.
type Subject struct {
	// UG is the user or group identifier.
	UG string
	// IP is the numeric location pattern.
	IP IPPattern
	// SN is the symbolic location pattern.
	SN SNPattern
}

// NewSubject builds a subject from its textual triple; "*" location
// components denote the universal patterns.
func NewSubject(ug, ip, sn string) (Subject, error) {
	s := Subject{UG: ug}
	if ug == "" {
		return s, fmt.Errorf("subjects: empty user/group identifier")
	}
	var err error
	if s.IP, err = ParseIPPattern(ip); err != nil {
		return s, err
	}
	if s.SN, err = ParseSNPattern(sn); err != nil {
		return s, err
	}
	return s, nil
}

// MustNewSubject is NewSubject for known-good triples.
func MustNewSubject(ug, ip, sn string) Subject {
	s, err := NewSubject(ug, ip, sn)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders the subject as the paper writes it: ⟨ug,ip,sn⟩.
func (s Subject) String() string {
	return "<" + s.UG + "," + s.IP.String() + "," + s.SN.String() + ">"
}

// Requester identifies an access request's origin: the authenticated
// user identity and the concrete machine it connected from. Requesters
// are the minimal elements of ASH.
type Requester struct {
	// User is the identity established by the server ("anonymous" for
	// unauthenticated requests).
	User string
	// IP is the numeric address of the requesting machine.
	IP string
	// Host is the symbolic name of the requesting machine; may be empty
	// when reverse resolution is unavailable, in which case only
	// universal symbolic patterns apply.
	Host string
}

// Subject converts the requester into its (minimal) ASH element.
func (r Requester) Subject() (Subject, error) {
	ip, err := ParseIPPattern(r.IP)
	if err != nil {
		return Subject{}, err
	}
	if !ip.IsConcrete() {
		return Subject{}, fmt.Errorf("subjects: requester IP %q is not a concrete address", r.IP)
	}
	sn := AnySN
	if r.Host != "" {
		sn, err = ParseSNPattern(r.Host)
		if err != nil {
			return Subject{}, err
		}
		if !sn.IsConcrete() {
			return Subject{}, fmt.Errorf("subjects: requester host %q is not a concrete name", r.Host)
		}
	}
	user := r.User
	if user == "" {
		user = "anonymous"
	}
	return Subject{UG: user, IP: ip, SN: sn}, nil
}

// Normalized returns the canonical form of the requester identity:
// an empty user folds to "anonymous" (Subject() treats them as the
// same minimal ASH element) and the symbolic host name is lowercased
// (ParseSNPattern lowercases pattern components, so "Tweety.Lab.Com"
// and "tweety.lab.com" denote the same location). Anything that keys
// state by requester — caches, equivalence classes — must key on the
// normalized form, or equivalent requesters split into distinct
// entries.
func (r Requester) Normalized() Requester {
	if r.User == "" {
		r.User = "anonymous"
	}
	r.Host = strings.ToLower(r.Host)
	return r
}

func (r Requester) String() string {
	host := r.Host
	if host == "" {
		host = "?"
	}
	return fmt.Sprintf("%s@%s(%s)", r.User, r.IP, host)
}

// Hierarchy evaluates the ASH partial order against a directory of
// users and groups.
type Hierarchy struct {
	Dir *Directory
}

// Leq reports a ≤ b in ASH: a.UG is a member of b.UG, a.IP ≤ip b.IP,
// and a.SN ≤sn b.SN.
func (h Hierarchy) Leq(a, b Subject) bool {
	return h.Dir.MemberOf(a.UG, b.UG) && a.IP.Leq(b.IP) && a.SN.Leq(b.SN)
}

// StrictlyLess reports a < b: a ≤ b and not b ≤ a. Conflict resolution
// by "most specific subject takes precedence" discards an authorization
// only when another applicable authorization has a strictly more
// specific subject; two equivalent subjects never dominate each other.
func (h Hierarchy) StrictlyLess(a, b Subject) bool {
	return h.Leq(a, b) && !h.Leq(b, a)
}

// Equal reports whether two subjects are the same ASH element.
func (s Subject) Equal(t Subject) bool {
	return s.UG == t.UG && s.IP == t.IP &&
		s.SN.wild == t.SN.wild && equalComps(s.SN.suffix, t.SN.suffix)
}

// AppliesTo reports whether an authorization granted to subject s is
// applicable to requester r, i.e. whether subject(r) ≤ s.
func (h Hierarchy) AppliesTo(s Subject, r Requester) (bool, error) {
	rs, err := r.Subject()
	if err != nil {
		return false, err
	}
	return h.appliesTo(s, rs, r.Host == ""), nil
}

// Applicable returns AppliesTo for one requester as a predicate over
// subjects, converting the requester to its minimal ASH element once:
// compute-view checks every authorization attached to a document
// against the same requester.
func (h Hierarchy) Applicable(r Requester) (func(Subject) bool, error) {
	rs, err := r.Subject()
	if err != nil {
		return nil, err
	}
	hostUnresolved := r.Host == ""
	return func(s Subject) bool { return h.appliesTo(s, rs, hostUnresolved) }, nil
}

// appliesTo is AppliesTo with the requester already converted to its
// minimal ASH element; the class index classifies a requester against
// dozens of subjects and must not re-parse the triple per subject.
func (h Hierarchy) appliesTo(s, rs Subject, hostUnresolved bool) bool {
	// An unresolvable host only matches the universal symbolic pattern.
	if hostUnresolved && !(s.SN.wild && len(s.SN.suffix) == 0) {
		return false
	}
	return h.Leq(rs, s)
}

// MostSpecific filters the given subjects down to those that are not
// strictly dominated by another element of the set (Step 1b of the
// paper's initial_label procedure, applied to any slice of values that
// expose their subject through the sub function).
func MostSpecific[T any](h Hierarchy, items []T, sub func(T) Subject) []T {
	out := items[:0:0]
	for i, it := range items {
		dominated := false
		for j, other := range items {
			if i == j {
				continue
			}
			if h.StrictlyLess(sub(other), sub(it)) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, it)
		}
	}
	return out
}

// ParseSubject parses the textual form "<ug,ip,sn>" or "ug,ip,sn".
func ParseSubject(s string) (Subject, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "<")
	t = strings.TrimSuffix(t, ">")
	parts := strings.Split(t, ",")
	if len(parts) != 3 {
		return Subject{}, fmt.Errorf("subjects: malformed subject %q (want ug,ip,sn)", s)
	}
	return NewSubject(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2]))
}
