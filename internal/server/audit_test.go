package server

import (
	"encoding/json"
	"strings"
	"testing"

	"xmlsec/internal/labexample"
)

func decodeAudit(t *testing.T, out string) []AuditRecord {
	t.Helper()
	var recs []AuditRecord
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var r AuditRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestAuditTrail(t *testing.T) {
	site := labSite(t)
	var buf strings.Builder
	site.SetAuditLog(&buf)

	// A successful read.
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	// A not-found read.
	if _, err := site.Process(labexample.Tom, "ghost.xml"); err == nil {
		t.Fatal("expected not-found")
	}
	// A forbidden write.
	if err := site.Update(labexample.Tom, labexample.DocURI,
		`<!DOCTYPE laboratory SYSTEM "laboratory.xml"><laboratory name="X"><project name="p" type="public"><manager><flname>f</flname></manager></project></laboratory>`); err == nil {
		t.Fatal("expected forbidden")
	}
	// A query, audited under its own op.
	if _, err := site.QueryDoc(labexample.Tom, labexample.DocURI, "//title"); err != nil {
		t.Fatal(err)
	}

	recs := decodeAudit(t, buf.String())
	if len(recs) != 4 {
		t.Fatalf("audit records = %d, want 4:\n%s", len(recs), buf.String())
	}
	r0 := recs[0]
	if r0.Op != "read" || r0.Decision != "ok" || r0.User != "Tom" || r0.URI != labexample.DocURI {
		t.Errorf("read record wrong: %+v", r0)
	}
	if r0.Kept == 0 || r0.Nodes == 0 || r0.Time.IsZero() {
		t.Errorf("read record missing stats/time: %+v", r0)
	}
	if recs[1].Decision != "not-found" {
		t.Errorf("second record = %+v, want not-found", recs[1])
	}
	r2 := recs[2]
	if r2.Op != "write" || r2.Decision != "forbidden" || r2.Detail == "" {
		t.Errorf("write record wrong: %+v", r2)
	}
	r3 := recs[3]
	if r3.Op != "query" || r3.Decision != "ok" || r3.User != "Tom" || r3.Kept != r0.Kept || r3.Nodes != r0.Nodes {
		t.Errorf("query record wrong: %+v", r3)
	}
}

func TestAuditDisabledByDefault(t *testing.T) {
	site := labSite(t)
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert beyond "no panic with nil auditor"; also check
	// SetAuditLog(nil) disables an enabled log.
	var buf strings.Builder
	site.SetAuditLog(&buf)
	site.SetAuditLog(nil)
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled audit still wrote: %s", buf.String())
	}
}

func TestAuditSuccessfulWrite(t *testing.T) {
	site, sam := writerSite(t)
	var buf strings.Builder
	site.SetAuditLog(&buf)
	if err := site.Update(sam, labexample.DocURI, updatedCSlab); err != nil {
		t.Fatal(err)
	}
	recs := decodeAudit(t, buf.String())
	// Update audits the write; the internal read view computation does
	// not go through Process, so exactly one record.
	if len(recs) != 1 || recs[0].Op != "write" || recs[0].Decision != "ok" {
		t.Errorf("write audit = %+v", recs)
	}
}
