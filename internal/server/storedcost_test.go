package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"xmlsec/internal/authz"
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

// TestStoredDocumentLiveHeap pins what one stored document keeps alive:
// its source text and its arena, not the parser's tree. Measured by
// this test (Go 1.24, linux/amd64), a benchmark-shaped document held
// 512 KB while the store kept the tree next to the arena and holds
// 160 KB arena-only: the tree is 352 KB of it. The budget sits between
// the two, so it fails any registration path that keeps the tree.
func TestStoredDocumentLiveHeap(t *testing.T) {
	const n = 16
	const budget = 256 << 10
	uris := make([]string, n)
	sources := make([]string, n)
	for i := range uris {
		uris[i] = fmt.Sprintf("d%02d.xml", i)
		sources[i] = benchShapeDoc(int64(i))
	}
	before := liveHeap()
	store := NewDocStore()
	if err := store.AddDTD("bench.dtd", benchShapeDTD); err != nil {
		t.Fatal(err)
	}
	if i, err := store.addDocuments(uris, sources); err != nil {
		t.Fatalf("document %d: %v", i, err)
	}
	after := liveHeap()
	runtime.KeepAlive(store)
	runtime.KeepAlive(sources)
	per := (int64(after) - int64(before)) / n
	t.Logf("live heap per stored document: %d KB", per>>10)
	if per > budget {
		t.Errorf("each stored document keeps %d KB live, over the %d KB budget: is a pointer tree stored next to the arena?", per>>10, budget>>10)
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
