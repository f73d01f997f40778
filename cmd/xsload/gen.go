package main

import (
	"encoding/base64"
	"fmt"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Inputs. Everything in this file is a pure function of the seed and
// the workload. xsload writes the XML text itself instead of using
// internal/workload, so a change to a program package cannot change
// what the benchmark feeds the program.
const (
	numUsers    = 10000
	numGroups   = 8
	editorEvery = 64 // every 64th user is also in "editors"
	fanout      = 5
	depth       = 4 // element levels below the document element
	numKeys     = 8 // the k attribute takes the values "0".."7"
	peerIP      = "127.0.0.1"
)

var levelNames = [depth + 1]string{"doc", "sec", "item", "entry", "leaf"}

// benchDTD types every generated document. The DTD makes each update
// re-validate, as it does on a real site.
const benchDTD = `<!ELEMENT doc (sec+)>
<!ELEMENT sec (item+)>
<!ELEMENT item (entry+)>
<!ELEMENT entry (leaf+)>
<!ELEMENT leaf (#PCDATA)>
<!ATTLIST doc k CDATA #REQUIRED v CDATA #REQUIRED>
<!ATTLIST sec k CDATA #REQUIRED v CDATA #REQUIRED>
<!ATTLIST item k CDATA #REQUIRED v CDATA #REQUIRED>
<!ATTLIST entry k CDATA #REQUIRED v CDATA #REQUIRED>
<!ATTLIST leaf k CDATA #REQUIRED v CDATA #REQUIRED>
`

// elem is one generated element. k is never rewritten, so the rules'
// predicates (which test only k) select the same nodes before and
// after any update; updates rewrite v and leaf text, at fixed width, so
// document size stays constant.
type elem struct {
	k    int
	v    string
	text string // leaves only
	kids []*elem
}

// rule is one authorization of a document's XACL. A negative rule hides
// the elements at level whose k is in keys (with attr, only their v
// attribute); the generator reads that to keep update targets legal.
type rule struct {
	ug, ip, sn        string
	path              string
	action, sign, typ string
	level             int
	keys              []int
	attr              bool
}

type docSpec struct {
	uri   string
	root  *elem
	rules []rule
	// entries (set-attr targets) and leaves (replace-text targets) are
	// the positions, 1-based from the document element, that no
	// negative rule hides: every editor can read and write them, so
	// every generated update commits.
	entries, leaves [][]int
}

type user struct {
	name, password string
	groups         []string
	auth           string // Authorization header value
}

// site is the generated site directory: 10,000 users in 1–3 of eight
// groups (every 64th also an editor), and ndocs documents of depth 4
// and fanout 5 with two attributes per element, each with its own XACL.
type site struct {
	users   []user
	editors []int // indexes into users
	docs    []*docSpec
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func genSite(seed uint64, ndocs int) *site {
	rng := newRand(seed, 1)
	s := &site{}
	for i := 0; i < numUsers; i++ {
		u := user{name: fmt.Sprintf("u%05d", i), password: fmt.Sprintf("%08x", rng.Uint32())}
		for _, g := range rng.Perm(numGroups)[:1+rng.IntN(3)] {
			u.groups = append(u.groups, fmt.Sprintf("g%d", g))
		}
		sort.Strings(u.groups)
		if i%editorEvery == 0 {
			u.groups = append(u.groups, "editors")
			s.editors = append(s.editors, i)
		}
		u.auth = "Basic " + base64.StdEncoding.EncodeToString([]byte(u.name+":"+u.password))
		s.users = append(s.users, u)
	}
	for d := 0; d < ndocs; d++ {
		doc := &docSpec{uri: fmt.Sprintf("d%02d.xml", d), root: genTree(rng), rules: rules()}
		doc.collectTargets(doc.root, 0, nil)
		s.docs = append(s.docs, doc)
	}
	return s
}

// genTree builds one document. The k values of each level are a
// shuffle of an even spread of the eight keys, so every rule selects
// the same number of nodes whatever the seed and only which nodes
// differ: the work a request costs does not depend on the seed.
func genTree(rng *rand.Rand) *elem {
	var levels [depth + 1][]*elem
	var build func(level int) *elem
	build = func(level int) *elem {
		e := &elem{v: hex4(rng)}
		levels[level] = append(levels[level], e)
		if level == depth {
			e.text = word6(rng)
			return e
		}
		for i := 0; i < fanout; i++ {
			e.kids = append(e.kids, build(level+1))
		}
		return e
	}
	root := build(0)
	for _, es := range levels[1:] {
		keys := make([]int, len(es))
		for i := range keys {
			keys[i] = i % numKeys
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for i, e := range es {
			e.k = keys[i]
		}
	}
	return root
}

// rules returns a document's 13 instance-level authorizations: a
// Public grant on the document element (no view is ever empty), an
// editors read and write grant over the whole document, one predicated
// recursive rule per group (g0–g4 grant, g5–g7 deny), and two location
// denials that every requester from 127.0.0.1 (loadgen.bench.org) meets.
func rules() []rule {
	rs := []rule{
		{ug: "Public", path: "/doc", action: "read", sign: "+", typ: "L"},
		{ug: "editors", path: "/doc", action: "read", sign: "+", typ: "R"},
		{ug: "editors", path: "/doc", action: "write", sign: "+", typ: "R"},
	}
	groupKeys := [numGroups][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {6, 7}, {1}, {3}, {5}}
	for g, keys := range groupKeys {
		level := 2 + g%2 // items, then entries
		r := rule{ug: fmt.Sprintf("g%d", g), path: levelPath(level, keys), action: "read", sign: "+", typ: "R"}
		if g >= 5 {
			r.sign, r.level, r.keys = "-", level, keys
		}
		rs = append(rs, r)
	}
	return append(rs,
		rule{ug: "Public", ip: "127.*", path: "//leaf[@k='6']",
			action: "read", sign: "-", typ: "L", level: depth, keys: []int{6}},
		rule{ug: "Public", sn: "*.bench.org", path: "//entry[@k='4']/@v",
			action: "read", sign: "-", typ: "L", level: 3, keys: []int{4}, attr: true})
}

func levelPath(level int, keys []int) string {
	preds := make([]string, len(keys))
	for i, k := range keys {
		preds[i] = fmt.Sprintf("@k='%d'", k)
	}
	pred := strings.Join(preds, " or ")
	if level == 2 {
		return "/doc/sec/item[" + pred + "]"
	}
	return "//entry[" + pred + "]"
}

// hides reports whether a negative rule hides the element (attr false)
// or its v attribute (attr true) at level with key k.
func (d *docSpec) hides(level, k int, attr bool) bool {
	for _, r := range d.rules {
		if r.sign == "-" && r.level == level && r.attr == attr {
			for _, rk := range r.keys {
				if rk == k {
					return true
				}
			}
		}
	}
	return false
}

func (d *docSpec) collectTargets(e *elem, level int, pos []int) {
	if d.hides(level, e.k, false) {
		return // the whole subtree is hidden from some editor
	}
	switch level {
	case 3:
		if !d.hides(level, e.k, true) {
			d.entries = append(d.entries, pos)
		}
	case depth:
		d.leaves = append(d.leaves, pos)
		return
	}
	for i, c := range e.kids {
		d.collectTargets(c, level+1, append(pos[:len(pos):len(pos)], i+1))
	}
}

func positionPath(pos []int) string {
	var b strings.Builder
	b.WriteString("/doc")
	for i, p := range pos {
		fmt.Fprintf(&b, "/%s[%d]", levelNames[i+1], p)
	}
	return b.String()
}

func hex4(rng *rand.Rand) string { return fmt.Sprintf("%04x", rng.IntN(1<<16)) }

func word6(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, 6)
	for i := range b {
		b[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return string(b)
}

func (d *docSpec) xml() string {
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>\n<!DOCTYPE doc SYSTEM \"bench.dtd\">\n")
	writeElem(&b, d.root, 0)
	return b.String()
}

func writeElem(b *strings.Builder, e *elem, level int) {
	indent := strings.Repeat("  ", level)
	name := levelNames[level]
	fmt.Fprintf(b, "%s<%s k=\"%d\" v=\"%s\">", indent, name, e.k, e.v)
	if level == depth {
		fmt.Fprintf(b, "%s</%s>\n", e.text, name)
		return
	}
	b.WriteByte('\n')
	for _, c := range e.kids {
		writeElem(b, c, level+1)
	}
	fmt.Fprintf(b, "%s</%s>\n", indent, name)
}

var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")

func (d *docSpec) xacl() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<?xml version=\"1.0\"?>\n<xacl about=\"%s\" level=\"instance\">\n", d.uri)
	for _, r := range d.rules {
		ip, sn := r.ip, r.sn
		if ip == "" {
			ip = "*"
		}
		if sn == "" {
			sn = "*"
		}
		fmt.Fprintf(&b, "  <authorization>\n    <subject ug=\"%s\" ip=\"%s\" sn=\"%s\"/>\n", r.ug, ip, sn)
		fmt.Fprintf(&b, "    <object path=\"%s\"/>\n", attrEscaper.Replace(r.path))
		fmt.Fprintf(&b, "    <action>%s</action>\n    <sign>%s</sign>\n    <type>%s</type>\n  </authorization>\n",
			r.action, r.sign, r.typ)
	}
	b.WriteString("</xacl>\n")
	return b.String()
}

// write lays the site out in the directory format server.LoadSiteDir
// reads.
func (s *site) write(dir string) error {
	files := map[string]string{
		"dtds/bench.dtd": benchDTD,
		"resolver.conf":  peerIP + " loadgen.bench.org\n",
	}
	var groups strings.Builder
	for g := 0; g < numGroups; g++ {
		fmt.Fprintf(&groups, "g%d\n", g)
	}
	groups.WriteString("editors\n")
	files["groups.conf"] = groups.String()
	var users strings.Builder
	for _, u := range s.users {
		fmt.Fprintf(&users, "%s:%s:%s\n", u.name, u.password, strings.Join(u.groups, ","))
	}
	files["users.conf"] = users.String()
	for _, d := range s.docs {
		files["docs/"+d.uri] = d.xml()
		files["xacl/"+d.uri] = d.xacl()
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

type op uint8

const (
	opRead op = iota
	opQuery
	opUpdate
	numOps
)

var opNames = [numOps]string{"read", "query", "update"}

// wantStatus is the status every generated request must get: the
// policy makes every read, query and update legal.
var wantStatus = [numOps]int{200, 200, 204}

type request struct {
	op   op
	user int // index into site.users
	doc  int
	arg  string // query expression or update script
}

// deck deals the values 0..len(counts)-1, value v counts[v] times per
// round, each round shuffled: a stream's mix is then exact in every
// round, not only on average, so its latency quantiles do not move with
// the seed (a median sitting between two kinds of request would jump).
type deck struct {
	rng   *rand.Rand
	round []int
	left  []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for v, n := range counts {
		for i := 0; i < n; i++ {
			d.round = append(d.round, v)
		}
	}
	return d
}

func (d *deck) deal() int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.round...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// genRequests draws n requests of the workload's mix. Readers and
// queriers are uniform over all users; only editors send updates.
func genRequests(rng *rand.Rand, s *site, w *workload, n int) []request {
	ops := newDeck(rng, w.readPct, w.queryPct, 100-w.readPct-w.queryPct)
	queries := newDeck(rng, 1, 1, 1, 1, 1, 1, 1)
	scripts := newDeck(rng, 1, 1)
	out := make([]request, n)
	for i := range out {
		r := request{op: op(ops.deal()), doc: rng.IntN(len(s.docs)), user: rng.IntN(numUsers)}
		switch r.op {
		case opQuery:
			r.arg = genQuery(rng, queries.deal())
		case opUpdate:
			r.user = s.editors[rng.IntN(len(s.editors))]
			r.arg = genScript(rng, s.docs[r.doc], scripts.deal())
		}
		out[i] = r
	}
	return out
}

// genQuery returns an expression of the given kind; the seven kinds are
// one of each kind /query/ accepts. Each selects attributes or a single
// small subtree, so evaluating the expression, not copying and
// serializing a large result, is most of a query's cost.
func genQuery(rng *rand.Rand, kind int) string {
	k := rng.IntN(numKeys)
	switch kind {
	case 0: // child path with a predicate
		return fmt.Sprintf("/doc/sec/item/entry[@k='%d']/@v", k)
	case 1: // descendant step with a predicate
		return fmt.Sprintf("//leaf[@k='%d']/@v", k)
	case 2: // attribute step
		return fmt.Sprintf("/doc/sec/item[@k='%d']/@v", k)
	case 3: // union
		return fmt.Sprintf("//item[@k='%d']/@v | //entry[@k='%d']/@v", k, (k+1)%numKeys)
	case 4: // positional steps
		return fmt.Sprintf("/doc/sec[%d]/item[%d]/entry[%d]", 1+rng.IntN(fanout), 1+rng.IntN(fanout), 1+rng.IntN(fanout))
	case 5: // count()
		return fmt.Sprintf("//item[count(entry[@k='%d']) >= 2]/@v", k)
	default: // reverse axis
		return fmt.Sprintf("//leaf[@k='%d']/ancestor::item/@v", k)
	}
}

// genScript returns a one-operation update script with a fixed-width
// value: set-attr (kind 0) or replace-text.
func genScript(rng *rand.Rand, d *docSpec, kind int) string {
	if kind == 0 {
		t := d.entries[rng.IntN(len(d.entries))]
		return fmt.Sprintf("set-attr %s v=%s\n", positionPath(t), hex4(rng))
	}
	t := d.leaves[rng.IntN(len(d.leaves))]
	return fmt.Sprintf("replace-text %s %s\n", positionPath(t), word6(rng))
}

// httpRequest renders r as HTTP/1.1 request bytes.
func (s *site) httpRequest(r *request) []byte {
	u := &s.users[r.user]
	uri := s.docs[r.doc].uri
	switch r.op {
	case opRead:
		return fmt.Appendf(nil, "GET /docs/%s HTTP/1.1\r\nHost: xsload\r\nAuthorization: %s\r\n\r\n", uri, u.auth)
	case opQuery:
		return fmt.Appendf(nil, "GET /query/%s?q=%s HTTP/1.1\r\nHost: xsload\r\nAuthorization: %s\r\n\r\n",
			uri, url.QueryEscape(r.arg), u.auth)
	default:
		return fmt.Appendf(nil, "POST /docs/%s/update HTTP/1.1\r\nHost: xsload\r\nAuthorization: %s\r\n"+
			"Content-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s", uri, u.auth, len(r.arg), r.arg)
	}
}
