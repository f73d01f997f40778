package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/subjects"
)

// benchShapeDTD and benchShapeDoc generate documents in the shape of
// the end-to-end benchmark's (cmd/xsload): a typed document of depth 4
// and fanout 5 whose every element carries a k and a v attribute, with
// six-letter leaf text — 781 elements, 2,969 nodes.
const benchShapeDTD = `<!ELEMENT doc (sec+)>
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

func benchShapeDoc(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"doc", "sec", "item", "entry", "leaf"}
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>\n<!DOCTYPE doc SYSTEM \"bench.dtd\">\n")
	var elem func(level int)
	elem = func(level int) {
		indent := strings.Repeat("  ", level)
		fmt.Fprintf(&b, "%s<%s k=\"%d\" v=\"%04x\">", indent, names[level], rng.Intn(8), rng.Intn(1<<16))
		if level == len(names)-1 {
			fmt.Fprintf(&b, "w%05d</%s>\n", rng.Intn(100000), names[level])
			return
		}
		b.WriteByte('\n')
		for i := 0; i < 5; i++ {
			elem(level + 1)
		}
		fmt.Fprintf(&b, "%s</%s>\n", indent, names[level])
	}
	elem(0)
	return b.String()
}

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchSources returns n benchmark-shaped documents and their URIs.
func benchSources(n int) (uris, sources []string) {
	uris = make([]string, n)
	sources = make([]string, n)
	for i := range uris {
		uris[i] = fmt.Sprintf("d%02d.xml", i)
		sources[i] = benchShapeDoc(int64(i))
	}
	return uris, sources
}

// storeDocs registers documents in a fresh store.
func storeDocs(t *testing.T, uris, sources []string) *DocStore {
	t.Helper()
	store := NewDocStore()
	if err := store.AddDTD("bench.dtd", benchShapeDTD); err != nil {
		t.Fatal(err)
	}
	if i, err := store.addDocuments(uris, sources); err != nil {
		t.Fatalf("document %d: %v", i, err)
	}
	return store
}

// TestStoredDocumentLiveHeap pins what one stored document keeps alive:
// its arena and parsed DTD, not the parser's tree (the source text is
// the caller's and not counted). Measured by this test (Go 1.24,
// linux/amd64), a benchmark-shaped document held 512 KB while the
// store kept the tree next to the arena, 159 KB arena-only with
// 48-byte arena slots, and 90 KB with 25-byte slots (docs/ARENA.md).
// The budget fails a store that keeps the tree, or the old slot layout.
func TestStoredDocumentLiveHeap(t *testing.T) {
	const n = 16
	const budget = 100 << 10
	uris, sources := benchSources(n)
	before := liveHeap()
	store := storeDocs(t, uris, sources)
	after := liveHeap()
	runtime.KeepAlive(store)
	runtime.KeepAlive(sources)
	per := (int64(after) - int64(before)) / n
	t.Logf("live heap per stored document: %d KB", per>>10)
	if per > budget {
		t.Errorf("each stored document keeps %d KB live, over the %d KB budget: is a pointer tree stored next to the arena, or are the arena's slots wider than 25 bytes?", per>>10, budget>>10)
	}
}

// TestRenderedDocumentLiveHeap pins what a stored document keeps alive
// once a view of it has been served: the arena plus its rendering, one
// serialized copy of the document and a span per element. Measured by
// this test (Go 1.24, linux/amd64), a benchmark-shaped document held
// 223 KB with 48-byte arena slots and a start/end pair for every slot,
// and 137 KB with 25-byte slots and spans for element slots only.
func TestRenderedDocumentLiveHeap(t *testing.T) {
	const n = 16
	const budget = 144 << 10
	uris, sources := benchSources(n)
	before := liveHeap()
	store := storeDocs(t, uris, sources)
	for _, uri := range store.URIs() {
		doc := store.Doc(uri).Doc
		// Hide the last node: a masked write renders the document and
		// copies its fully visible subtrees out of the rendering.
		mask := dom.NewBitmask(doc.NodeCount())
		mask.SetRange(0, doc.NodeCount()-1)
		if err := doc.Write(io.Discard, dom.WriteOptions{Indent: dom.ServeIndent, Mask: mask}); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(store)
	runtime.KeepAlive(sources)
	per := (int64(after) - int64(before)) / n
	t.Logf("live heap per rendered document: %d KB", per>>10)
	if per > budget {
		t.Errorf("each rendered document keeps %d KB live, over the %d KB budget: does the rendering keep spans for every slot?", per>>10, budget>>10)
	}
}

// applyUpdateAllocBudget is the allocation count of one Site.ApplyUpdate
// on a benchmark-shaped document (TestApplyUpdateAllocations) when the
// store kept the tree, the write path copied it with Document.Clone and
// resolved targets through a node table: 14,172. Writes now resolve on
// the arena and copy it once with Materialize (8,393 allocations), and
// must never allocate more than the tree-copying path did — no write
// may pay for a second copy of the document.
const applyUpdateAllocBudget = 14172

// TestApplyUpdateAllocations pins the allocations of one update script
// on a benchmark-shaped document: read view, write labeling, resolve,
// copy-on-write apply, re-parse and validation, commit and node-set
// index warm-up.
func TestApplyUpdateAllocations(t *testing.T) {
	site := NewSite()
	if err := site.Docs.AddDTD("bench.dtd", benchShapeDTD); err != nil {
		t.Fatal(err)
	}
	if err := site.Docs.AddDocument("d.xml", benchShapeDoc(1)); err != nil {
		t.Fatal(err)
	}
	if err := site.Directory.AddUser("ed", "editors"); err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{
		`<<Public,*,*>,d.xml:/doc,read,+,L>`,
		`<<editors,*,*>,d.xml:/doc,read,+,R>`,
		`<<editors,*,*>,d.xml:/doc,write,+,R>`,
		`<<editors,*,*>,d.xml://entry[@k='4']/@v,read,-,L>`,
		`<<editors,*,*>,d.xml://leaf[@k='6'],read,-,L>`,
	} {
		if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	ed := subjects.Requester{User: "ed", IP: "127.0.0.1", Host: "loadgen.bench.org"}
	scripts := []string{
		"set-attr /doc/sec[2]/item[3]/entry[1] v=0a0a",
		"replace-text /doc/sec[4]/item[1]/entry[2]/leaf[5] w12345",
	}
	i := 0
	update := func() {
		if err := site.ApplyUpdate(context.Background(), ed, "d.xml", scripts[i%len(scripts)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	update() // warm the caches every later update reuses
	allocs := testing.AllocsPerRun(20, update)
	t.Logf("allocations per ApplyUpdate: %.0f (budget %d)", allocs, applyUpdateAllocBudget)
	if allocs > applyUpdateAllocBudget {
		t.Errorf("ApplyUpdate allocates %.0f times, over the budget of %d", allocs, applyUpdateAllocBudget)
	}
}

// TestCachedViewLiveHeap pins what one cached view keeps alive of its
// own once a GET has rendered it: its mask, its entry and its text's
// literal and references, not a copy of the bytes the document's
// rendering already holds. The views are scattered: Public may read a
// quarter of the entries and an eighth of the other leaves, so a view
// keeps about 30% of the nodes and every kept subtree is a span of the
// rendering. Measured by this test (Go 1.24, linux/amd64), a 12.9 KB
// view held 107% of its length while the cache kept its serialized
// string, and 31% with a dom.ViewText.
func TestCachedViewLiveHeap(t *testing.T) {
	const n = 16
	const budget = 45 // bytes of its own per 100 bytes of the view
	uris, sources := benchSources(n + 1)
	site := NewSite()
	if err := site.Docs.AddDTD("bench.dtd", benchShapeDTD); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Docs.addDocuments(uris, sources); err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{
		`<<Public,*,*>,bench.dtd://entry[@k='0'],read,+,R>`,
		`<<Public,*,*>,bench.dtd://entry[@k='1'],read,+,R>`,
		`<<Public,*,*>,bench.dtd://leaf[@k='2'],read,+,R>`,
	} {
		if err := site.Auths.Add(authz.SchemaLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	h := site.Handler()
	get := func(uri string) int {
		req := httptest.NewRequest(http.MethodGet, "/docs/"+uri, nil)
		req.RemoteAddr = "10.0.0.1:4000"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", uri, rec.Code)
		}
		return rec.Body.Len()
	}
	// Uncached reads fill the node-set index and render every document;
	// a first cached read builds the class index. Neither belongs to a
	// view.
	kept, nodes := 0, 0
	for _, uri := range uris {
		get(uri)
		res, err := site.Process(subjects.Requester{User: "anonymous", IP: "10.0.0.1"}, uri)
		if err != nil {
			t.Fatal(err)
		}
		kept, nodes = kept+res.View.Mask.Count(), nodes+res.View.Doc.NodeCount()
	}
	if frac := float64(kept) / float64(nodes); frac < 0.2 || frac > 0.4 {
		t.Fatalf("the views keep %.0f%% of the nodes, want about 30%%", 100*frac)
	}
	site.EnableViewCache(64)
	get(uris[n])

	before := liveHeap()
	length := 0
	for _, uri := range uris[:n] {
		length += get(uri)
	}
	after := liveHeap()
	runtime.KeepAlive(site)
	per, perLen := (int64(after)-int64(before))/n, int64(length/n)
	_, entries := site.cache.Entries()
	resident := 0
	for _, e := range entries {
		resident += e.ResidentBytes
	}
	t.Logf("a cached view of %d bytes keeps %d bytes live (%d%%); the cache reports %d resident bytes per view",
		perLen, per, 100*per/perLen, resident/len(entries))
	if 100*per > budget*perLen {
		t.Errorf("a cached view keeps %d bytes live for its %d bytes, over %d%%: does the cache copy the rendering's bytes?", per, perLen, budget)
	}
}
