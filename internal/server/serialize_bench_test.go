package server

import (
	"testing"

	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/labexample"
	"xmlsec/internal/subjects"
)

// unparseView runs one serve-path unparse cycle exactly as
// ProcessContext does: pooled, size-hinted buffer, masked arena sweep.
func unparseView(t testing.TB, site *Site, rq subjects.Requester) (string, *dom.Arena) {
	t.Helper()
	res, err := site.Process(rq, labexample.DocURI)
	if err != nil {
		t.Fatal(err)
	}
	sd := site.Docs.Doc(labexample.DocURI)
	ar := sd.Doc.ReadArena()
	if ar != sd.Doc.ReadArena() {
		t.Fatal("stored document carries no arena")
	}
	return res.XML, ar
}

// TestUnparseBufferReuse pins the allocation profile of the pooled
// serve-path unparse: once the pool is warm, one Get/Write/Put cycle
// must cost a small constant number of allocations — independent of
// document size — because the buffer is reused at full capacity (the
// size hint pre-grows it on a cold pool) and the arena serializer
// copies pre-escaped spans without building per-node strings.
func TestUnparseBufferReuse(t *testing.T) {
	site := labSite(t)
	rq := subjects.Requester{User: "Tom", IP: "150.100.30.8", Host: "tom.watson.com"}
	want, ar := unparseView(t, site, rq)

	sd := site.Docs.Doc(labexample.DocURI)
	view, err := site.Engine.ComputeView(
		core.Request{Requester: rq, URI: labexample.DocURI, DTDURI: sd.DTDURI}, sd.Doc)
	if err != nil {
		t.Fatal(err)
	}
	opts := dom.WriteOptions{Indent: "  "}

	write := func() {
		b := dom.GetBuffer(ar.SizeHint())
		if err := view.WriteXML(b, opts); err != nil {
			t.Fatal(err)
		}
		dom.PutBuffer(b)
	}
	write() // warm the pool so the steady state is what we measure

	// Sanity: the pooled cycle produces the same bytes Process served.
	b := dom.GetBuffer(ar.SizeHint())
	if err := view.WriteXML(b, opts); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("pooled unparse diverged from Process output:\ngot:  %q\nwant: %q", got, want)
	}
	dom.PutBuffer(b)

	// The bound leaves headroom for the serializer's fixed per-call
	// state (error-folding writer, indent pad) but fails if the output
	// buffer stops being reused or the sweep regresses to per-node
	// allocation: either would scale with document size, far past 8.
	const maxAllocs = 8
	if allocs := testing.AllocsPerRun(50, write); allocs > maxAllocs {
		t.Errorf("pooled unparse cycle allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}

// BenchmarkUnparsePooled measures the serve path's unparse stage in
// isolation (labeling and masking amortized away): masked arena sweep
// into a pooled, size-hinted buffer.
func BenchmarkUnparsePooled(b *testing.B) {
	site := labSite(b)
	rq := subjects.Requester{User: "Tom", IP: "150.100.30.8", Host: "tom.watson.com"}
	sd := site.Docs.Doc(labexample.DocURI)
	view, err := site.Engine.ComputeView(
		core.Request{Requester: rq, URI: labexample.DocURI, DTDURI: sd.DTDURI}, sd.Doc)
	if err != nil {
		b.Fatal(err)
	}
	ar := sd.Doc.ReadArena()
	opts := dom.WriteOptions{Indent: "  "}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := dom.GetBuffer(ar.SizeHint())
		if err := view.WriteXML(buf, opts); err != nil {
			b.Fatal(err)
		}
		dom.PutBuffer(buf)
	}
}
