package server

import (
	"context"
	"net/http"
	"testing"

	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
)

// assertStoredDocsCarryArena fails unless every document the site
// stores carries a cached arena and no pointer tree. Labeling,
// masking, masked serialization and XPath all read Doc.ReadArena, which
// silently flattens the tree again on every call for a document without
// one — so a registration path that lost the parser's arena would not
// fail any request, only make every request rebuild it. Likewise a path
// that kept the parser's tree would fail nothing, only hold the tree's
// heap for the document's lifetime.
func assertStoredDocsCarryArena(t *testing.T, stage string, site *Site) {
	t.Helper()
	uris := site.Docs.URIs()
	if len(uris) == 0 {
		t.Fatalf("%s: site stores no documents", stage)
	}
	for _, uri := range uris {
		doc := site.Docs.Doc(uri).Doc
		if doc.ReadArena() != doc.ReadArena() {
			t.Errorf("%s: stored document %q carries no cached arena", stage, uri)
		}
		if doc.Node != nil {
			t.Errorf("%s: stored document %q keeps its pointer tree", stage, uri)
		}
	}
}

// TestStoredDocsCarryArena follows a document through every way the
// site installs one — site-directory load, AddDocument, PUT, update
// script, WAL replay and snapshot restore — and requires a cached arena
// and no tree (Doc.Node == nil) after each.
func TestStoredDocsCarryArena(t *testing.T) {
	site, err := LoadSiteDir("../../site")
	if err != nil {
		t.Fatal(err)
	}
	assertStoredDocsCarryArena(t, "LoadSiteDir", site)

	dir := t.TempDir()
	site = durableLabSite(t, dir)
	assertStoredDocsCarryArena(t, "registration", site)
	if rec := do(t, site.Handler(), http.MethodPut, "/docs/CSlab.xml", "Sam", "130.89.56.8", updatedCSlab); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT as Sam: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	assertStoredDocsCarryArena(t, "PUT", site)
	sam := subjects.Requester{User: "Sam", IP: "130.89.56.8", Host: "adminhost.lab.com"}
	if err := site.ApplyUpdate(context.Background(), sam, labexample.DocURI,
		"replace-text //flname Ada Hopper"); err != nil {
		t.Fatal(err)
	}
	assertStoredDocsCarryArena(t, "ApplyUpdate", site)
	if err := site.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	replayed := durableLabSite(t, dir)
	if st := replayed.WALStats(); st.ReplayRecords == 0 {
		t.Fatalf("recovery replayed no records: %+v", st)
	}
	assertStoredDocsCarryArena(t, "WAL replay", replayed)
	if err := replayed.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := replayed.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	restored := durableLabSite(t, dir)
	defer restored.CloseDurability()
	if st := restored.WALStats(); st.ReplayRecords != 0 {
		t.Fatalf("recovery after compaction replayed %d records, want a pure snapshot restore", st.ReplayRecords)
	}
	assertStoredDocsCarryArena(t, "snapshot restore", restored)
}
