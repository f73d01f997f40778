package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xmlsec/internal/labexample"
	"xmlsec/internal/wal"
)

// batchSiteFiles is the lab site with 40 documents, d00.xml to d39.xml,
// each the lab document under its own name.
func batchSiteFiles() map[string]string {
	files := labSiteFiles()
	for i := 0; i < 40; i++ {
		files[fmt.Sprintf("docs/d%02d.xml", i)] = strings.Replace(labexample.DocSource,
			`<laboratory name="CSlab">`, fmt.Sprintf(`<laboratory name="lab%02d">`, i), 1)
	}
	return files
}

// TestLoadSiteDirBatchFirstInvalid pins that a site directory with
// invalid documents fails on the first one in sorted order, with the
// message a one-at-a-time load gives, however the workers that prepare
// documents in parallel happen to finish.
func TestLoadSiteDirBatchFirstInvalid(t *testing.T) {
	files := batchSiteFiles()
	files["docs/d13.xml"] = `<!DOCTYPE laboratory SYSTEM "laboratory.xml"><laboratory name="x"><bogus/></laboratory>`
	files["docs/d29.xml"] = `<laboratory><unclosed></laboratory>`
	dir := writeSite(t, files)
	_, err := LoadSiteDir(dir)
	want := filepath.Join(dir, "docs") + `/d13.xml: server: document "d13.xml" is not valid: dtd: 2 validity errors:` +
		"\n\tdtd: /laboratory: child \"bogus\" at position 1 not allowed by content model (project+) of \"laboratory\"" +
		"\n\tdtd: /laboratory/bogus: element \"bogus\" is not declared"
	if err == nil || err.Error() != want {
		t.Fatalf("LoadSiteDir error:\n got: %v\nwant: %s", err, want)
	}
}

// TestLoadSiteDirBatchMatchesSequential pins that the parallel load
// registers what AddDocument one document at a time would: the same
// URIs, the same sources and trees, and the same store generation.
func TestLoadSiteDirBatchMatchesSequential(t *testing.T) {
	files := batchSiteFiles()
	site, err := LoadSiteDir(writeSite(t, files))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDocStore()
	if err := ref.AddDTD("laboratory.xml", files["dtds/laboratory.xml"]); err != nil {
		t.Fatal(err)
	}
	var uris []string
	for name := range files {
		if uri, ok := strings.CutPrefix(name, "docs/"); ok {
			uris = append(uris, uri)
		}
	}
	sort.Strings(uris)
	for _, uri := range uris {
		if err := ref.AddDocument(uri, files["docs/"+uri]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := strings.Join(site.Docs.URIs(), ","), strings.Join(ref.URIs(), ","); got != want {
		t.Fatalf("URIs:\n got: %s\nwant: %s", got, want)
	}
	for _, uri := range ref.URIs() {
		got, want := site.Docs.Doc(uri), ref.Doc(uri)
		if got.Source != want.Source || got.DTDURI != want.DTDURI || got.Doc.String() != want.Doc.String() {
			t.Errorf("%s: loaded document differs from AddDocument's", uri)
		}
	}
	if got, want := site.Docs.Generation(), ref.Generation(); got != want {
		t.Errorf("Generation() = %d after the batch, %d one at a time", got, want)
	}
}

// TestRestoreHTMLEscapedSnapshot pins that snapshots written with HTML
// escaping (every '<', '>' and '&' as \u003c, \u003e, \u0026, as
// json.Marshal writes them) still restore, to byte-identical views.
func TestRestoreHTMLEscapedSnapshot(t *testing.T) {
	site := durableLabSite(t, t.TempDir())
	defer site.CloseDurability()
	payload, err := site.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var st siteSnapshot
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	escaped, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(escaped, []byte(`\u003c`)) {
		t.Fatal("json.Marshal did not escape the sources")
	}
	restored := labSite(t)
	if err := restored.restoreSnapshot(escaped); err != nil {
		t.Fatal(err)
	}
	h, h2 := site.Handler(), restored.Handler()
	for _, rq := range []struct{ user, ip string }{
		{"Sam", "130.89.56.8"}, {"Tom", "130.100.50.8"}, {"", "9.9.9.9"},
	} {
		want := do(t, h, http.MethodGet, "/docs/CSlab.xml", rq.user, rq.ip, "")
		got := do(t, h2, http.MethodGet, "/docs/CSlab.xml", rq.user, rq.ip, "")
		if want.Code != http.StatusOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%q: restored view (HTTP %d) differs from the original (HTTP %d):\n%s\n---\n%s",
				rq.user, got.Code, want.Code, got.Body.String(), want.Body.String())
		}
	}
}

// TestSnapshotNotHTMLEscaped pins the snapshot encoding: sources are
// stored with their markup as is, not as six-byte escapes.
func TestSnapshotNotHTMLEscaped(t *testing.T) {
	dir := t.TempDir()
	site := durableLabSite(t, dir)
	payload, err := site.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(payload, []byte(`\u003c`)) || !bytes.Contains(payload, []byte(`<laboratory name=\"CSlab\">`)) {
		t.Errorf("snapshot escapes markup:\n%.300s", payload)
	}
	// The baseline snapshot a fresh data directory writes is the same
	// encoding, and it recovers.
	if err := site.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := l.Snapshot()
	l.Close()
	if err != nil || bytes.Contains(snap, []byte(`\u003c`)) || !bytes.Contains(snap, []byte("<laboratory")) {
		t.Errorf("baseline snapshot escapes markup (err %v):\n%.300s", err, snap)
	}
	site2 := durableLabSite(t, dir)
	if err := site2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}
