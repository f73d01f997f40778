package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/subjects"
	"xmlsec/internal/wal"
)

// The write-through-views race fixture: Alice may read and write all of
// /r except that she cannot read /r/a/@secret; Bob may read and write
// everything.
const (
	raceURI = "race.xml"
	raceDoc = `<r><a secret="0">t</a></r>`
)

var (
	alice = subjects.Requester{User: "Alice", IP: "10.0.0.1"}
	bob   = subjects.Requester{User: "Bob", IP: "10.0.0.2"}
)

// raceSite builds the fixture, durable under dir when dir is not empty.
func raceSite(t *testing.T, dir string) *Site {
	t.Helper()
	site := NewSite()
	for _, u := range []string{"Alice", "Bob"} {
		if err := site.Directory.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := site.Docs.AddDocument(raceURI, raceDoc); err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{
		`<<Alice,*,*>,race.xml:/r,read,+,R>`,
		`<<Alice,*,*>,race.xml:/r/a/@secret,read,-,L>`,
		`<<Alice,*,*>,race.xml:/r,write,+,R>`,
		`<<Bob,*,*>,race.xml:/r,read,+,R>`,
		`<<Bob,*,*>,race.xml:/r,write,+,R>`,
	} {
		if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	if dir != "" {
		if err := site.EnableDurability(dir, DurabilityOptions{Sync: wal.SyncNever}); err != nil {
			t.Fatal(err)
		}
	}
	return site
}

// together runs the two operations at once, released by one signal so
// that they overlap as closely as the scheduler allows.
func together(a, b func()) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	for _, f := range []func(){a, b} {
		go func(f func()) {
			defer wg.Done()
			<-start
			f()
		}(f)
	}
	close(start)
	wg.Wait()
}

// TestPutDoesNotRevertConcurrentUpdate races Alice's PUT of
// <r><a>tN</a></r> against Bob's set-attr of @secret to N. Both must
// succeed, and in either serial order @secret ends as N: a PUT keeps the
// content its author cannot see. A merge computed from a copy that
// Bob's committed update has superseded would put the old value back.
func TestPutDoesNotRevertConcurrentUpdate(t *testing.T) {
	site := raceSite(t, "")
	for n := 1; n <= 200; n++ {
		var putErr, updErr error
		together(
			func() { putErr = site.Update(alice, raceURI, fmt.Sprintf("<r><a>t%d</a></r>", n)) },
			func() {
				updErr = site.ApplyUpdate(context.Background(), bob, raceURI,
					fmt.Sprintf("set-attr /r/a secret=%d", n))
			})
		if putErr != nil || updErr != nil {
			t.Fatalf("round %d: PUT: %v; update: %v", n, putErr, updErr)
		}
		src := site.Docs.Doc(raceURI).Source
		if want := fmt.Sprintf(`secret="%d"`, n); !strings.Contains(src, want) {
			t.Fatalf("round %d: the PUT reverted the concurrent update: stored %s, want %s", n, src, want)
		}
		if want := fmt.Sprintf(">t%d<", n); !strings.Contains(src, want) {
			t.Fatalf("round %d: the PUT was lost: stored %s", n, src)
		}
	}
}

// TestPutDoesNotCommitAfterRevocation is the authorization twin: a
// LoadXACL that denies Alice write access races her PUT. The PUT may
// win, but only by committing first: a PUT whose log record follows the
// revocation's must not have been acknowledged.
func TestPutDoesNotCommitAfterRevocation(t *testing.T) {
	const revoke = `<xacl about="race.xml">
  <authorization>
    <subject ug="Alice"/>
    <object path="/r"/>
    <action>write</action>
    <sign>-</sign>
    <type>R</type>
  </authorization>
</xacl>`
	committed, refused := 0, 0
	for n := 1; n <= 60; n++ {
		dir := t.TempDir()
		site := raceSite(t, dir)
		var putErr, xaclErr error
		together(
			func() { putErr = site.Update(alice, raceURI, "<r><a>changed</a></r>") },
			func() { _, xaclErr = site.LoadXACL(revoke) })
		if xaclErr != nil {
			t.Fatalf("round %d: LoadXACL: %v", n, xaclErr)
		}
		if err := site.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		ops := loggedOps(t, dir)
		switch {
		case putErr == nil:
			committed++
			if len(ops) != 2 || ops[0] != "doc" || ops[1] != "xacl" {
				t.Fatalf("round %d: acknowledged PUT logged in order %v, want [doc xacl]", n, ops)
			}
		case isForbidden(putErr):
			refused++
			if len(ops) != 1 || ops[0] != "xacl" {
				t.Fatalf("round %d: refused PUT, yet the log holds %v", n, ops)
			}
		default:
			t.Fatalf("round %d: PUT: %v", n, putErr)
		}
	}
	t.Logf("%d PUTs committed before the revocation, %d refused after it", committed, refused)
}

// loggedOps lists the operations of the records in dir's log after its
// last snapshot, in log order.
func loggedOps(t *testing.T, dir string) []string {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ops []string
	if err := l.Replay(func(_ uint64, payload []byte) error {
		var m mutation
		if err := json.Unmarshal(payload, &m); err != nil {
			return err
		}
		ops = append(ops, m.Op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops
}
