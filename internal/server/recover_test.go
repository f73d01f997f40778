package server

import (
	"strings"
	"testing"

	"xmlsec/internal/dtd"
	"xmlsec/internal/wal"
)

// loadedSite loads the example site directory and records what its
// load parsed: each stored document and each registered DTD.
func loadedSite(t *testing.T) (*Site, map[string]*StoredDoc, map[string]*dtd.DTD) {
	t.Helper()
	site, err := LoadSiteDir("../../site")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]*StoredDoc{}
	for _, uri := range site.Docs.URIs() {
		docs[uri] = site.Docs.Doc(uri)
	}
	dtds := map[string]*dtd.DTD{}
	for _, uri := range site.Docs.DTDURIs() {
		dtds[uri] = site.Docs.DTD(uri)
	}
	return site, docs, dtds
}

// recoverSite enables durability on site in dir and closes the log.
func recoverSite(t *testing.T, site *Site, dir string) {
	t.Helper()
	if err := site.EnableDurability(dir, DurabilityOptions{Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReusesLoadedDocuments pins that a restart parses each
// document once. Recovery restores the snapshot over the state the
// site directory loaded, and a document whose source and DTD text are
// both byte-identical to the snapshot's keeps the arena LoadSiteDir
// built, as a DTD with identical text keeps its parsed form. A changed
// source or DTD is parsed and validated again.
func TestRecoveryReusesLoadedDocuments(t *testing.T) {
	dir := t.TempDir()
	first, _, _ := loadedSite(t)
	recoverSite(t, first, dir) // a fresh directory: writes the baseline snapshot
	first.CloseDurability()

	site, docs, dtds := loadedSite(t)
	recoverSite(t, site, dir)
	for uri, sd := range docs {
		got := site.Docs.Doc(uri)
		if got != sd || got.Doc != sd.Doc {
			t.Errorf("%s: recovery parsed the document again although its text is unchanged", uri)
		}
	}
	for uri, d := range dtds {
		if site.Docs.DTD(uri) != d {
			t.Errorf("DTD %s: recovery parsed it again although its text is unchanged", uri)
		}
	}

	// A changed document is parsed again; the others are kept.
	changed := strings.Replace(site.Docs.Doc("EElab.xml").Source, `name="EElab"`, `name="EElab2"`, 1)
	if changed == site.Docs.Doc("EElab.xml").Source {
		t.Fatal("fixture changed: EElab.xml has no name=\"EElab\"")
	}
	if err := site.PutDocument("EElab.xml", changed); err != nil {
		t.Fatal(err)
	}
	if err := site.Compact(); err != nil {
		t.Fatal(err)
	}
	site.CloseDurability()
	site, docs, _ = loadedSite(t)
	recoverSite(t, site, dir)
	if sd := site.Docs.Doc("EElab.xml"); sd == docs["EElab.xml"] || sd.Source != changed {
		t.Error("EElab.xml: recovery kept the loaded document although the snapshot changed it")
	}
	if site.Docs.Doc("CSlab.xml") != docs["CSlab.xml"] {
		t.Error("CSlab.xml: recovery parsed the document again although its text is unchanged")
	}

	// A changed DTD is parsed again, and so is every document of it.
	lab, _ := site.Docs.DTDSource("laboratory.xml")
	if err := site.PutDTD("laboratory.xml", lab+"<!-- v2 -->\n"); err != nil {
		t.Fatal(err)
	}
	if err := site.Compact(); err != nil {
		t.Fatal(err)
	}
	site.CloseDurability()
	site, docs, dtds = loadedSite(t)
	recoverSite(t, site, dir)
	defer site.CloseDurability()
	if site.Docs.DTD("laboratory.xml") == dtds["laboratory.xml"] {
		t.Error("laboratory.xml: recovery kept the loaded DTD although the snapshot changed it")
	}
	for uri, sd := range docs {
		if sd.DTDURI == "laboratory.xml" && site.Docs.Doc(uri) == sd {
			t.Errorf("%s: recovery kept the document although its DTD changed", uri)
		}
	}
}

// TestRecoveryValidatesAgainstChangedDTD: a document recovery keeps
// from the site directory must still be valid against the snapshot's
// DTD. With a DTD that now requires an attribute the documents lack,
// recovery validates them again and refuses.
func TestRecoveryValidatesAgainstChangedDTD(t *testing.T) {
	dir := t.TempDir()
	site, _, _ := loadedSite(t)
	recoverSite(t, site, dir)
	lab, _ := site.Docs.DTDSource("laboratory.xml")
	if err := site.PutDTD("laboratory.xml", lab+"<!ATTLIST laboratory stamp CDATA #REQUIRED>\n"); err != nil {
		t.Fatal(err)
	}
	if err := site.Compact(); err != nil {
		t.Fatal(err)
	}
	site.CloseDurability()
	site, _, _ = loadedSite(t)
	err := site.EnableDurability(dir, DurabilityOptions{Sync: wal.SyncAlways})
	if err == nil {
		site.CloseDurability()
		t.Fatal("recovery kept documents that the snapshot's DTD rejects")
	}
	if !strings.Contains(err.Error(), "not valid") {
		t.Errorf("recovery failed for another reason: %v", err)
	}
}
