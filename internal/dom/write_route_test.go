package dom_test

import (
	"io"
	"testing"

	"xmlsec/internal/dom"
	"xmlsec/internal/workload"
)

// BenchmarkWriteRoute prices the two ways to serialize a document built
// in memory without an arena (a query result, update output): flatten
// it into an arena and write that, or write the pointer tree directly.
// The document has the benchmark workload's shape (depth 4, fanout 5,
// 2 attributes per element, ~3k nodes). The arena write is cheaper than
// the tree write, but not by enough to pay for building the arena, so
// Document.Write keeps the tree route for arena-less unmasked writes.
//
//	go test -run '^$' -bench WriteRoute ./internal/dom/
func BenchmarkWriteRoute(b *testing.B) {
	doc := workload.GenDocument(workload.DocConfig{Depth: 4, Fanout: 5, Attrs: 2, Seed: 3}).Clone()
	writeOpts := dom.WriteOptions{Indent: "  "}
	b.Run("arena-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = doc.ReadArena()
		}
	})
	b.Run("tree-write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = doc.Write(io.Discard, writeOpts)
		}
	})
	withArena := doc.Clone()
	withArena.BuildArena()
	b.Run("arena-write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = withArena.Write(io.Discard, writeOpts)
		}
	})
}
