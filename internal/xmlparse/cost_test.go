package xmlparse_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmlsec/internal/dtd"
	"xmlsec/internal/workload"
	"xmlsec/internal/xmlparse"
)

// parseAllocBudget is the most allocations one Parse of the benchmark
// document shape (depth 4, fanout 5, two attributes per element: 2,967
// nodes) may make. The parser writes the arena's arrays directly, so
// what remains is the arrays, their growth and trim, and the symbol
// table: under a hundred. A parser that builds a pointer tree makes
// about two per node (5,816 did).
const parseAllocBudget = 600

// TestParseAllocBudget pins the parser's allocations per document.
func TestParseAllocBudget(t *testing.T) {
	doc := workload.GenDocument(workload.DocConfig{Depth: 4, Fanout: 5, Attrs: 2, Seed: 1})
	src := doc.String()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := xmlparse.Parse(src, xmlparse.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parseAllocBudget {
		t.Errorf("Parse made %.0f allocations for a %d-node document, budget %d", allocs, doc.NodeCount(), parseAllocBudget)
	}
}

// TestMalformedBodyAllocationBounded pins what a body that fails at its
// second byte costs: the parser pre-sizes the arena from a count of
// markup in the source, and that guess must stay bounded whatever the
// body, or 4 MiB of '<' would allocate arrays for a million nodes.
func TestMalformedBodyAllocationBounded(t *testing.T) {
	src := strings.Repeat("<", 4<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := xmlparse.Parse(src, xmlparse.Options{}); err == nil {
		t.Fatal("a body of '<' parsed")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("a malformed 4 MiB body allocated %d MiB before failing, budget 8 MiB", got>>20)
	}
}

// attrDocs returns two documents with the same n+n/10 attributes, the
// same attribute names and the same number of attribute declarations.
// In wide one element carries them all, declared by one ATTLIST, the
// last n/10 supplied by defaulting. In spread each of n/10 elements
// carries ten and one defaulted, declared by an ATTLIST of its own.
func attrDocs(n int) (wide, spread string) {
	var w, s strings.Builder
	w.WriteString("<!DOCTYPE r [<!ELEMENT r ANY><!ELEMENT a EMPTY><!ATTLIST a")
	s.WriteString("<!DOCTYPE r [<!ELEMENT r ANY>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&w, " a%d CDATA #IMPLIED", i)
	}
	for j := 0; j < n/10; j++ {
		fmt.Fprintf(&w, " d%d CDATA 'x'", j)
		fmt.Fprintf(&s, "<!ELEMENT e%d EMPTY><!ATTLIST e%d", j, j)
		for i := 10 * j; i < 10*j+10; i++ {
			fmt.Fprintf(&s, " a%d CDATA #IMPLIED", i)
		}
		fmt.Fprintf(&s, " d%d CDATA 'x'>", j)
	}
	w.WriteString(">]><r><a")
	s.WriteString("]><r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&w, " a%d='%d'", i, i%10)
		if i%10 == 0 {
			fmt.Fprintf(&s, "<e%d", i/10)
		}
		fmt.Fprintf(&s, " a%d='%d'", i, i%10)
		if i%10 == 9 {
			s.WriteString("/>")
		}
	}
	w.WriteString("/></r>")
	s.WriteString("</r>")
	return w.String(), s.String()
}

// TestAttributeCostLinear pins that parsing, defaulting and validating
// an element, and declaring its attributes, cost time linear in its
// attribute count. It times the same attributes twice at one size —
// 20k on one element, and ten to an element — so both parses touch the
// same names, maps and bytes, and caches and host load weigh on both
// alike. Linear work takes about as long either way; a quadratic scan
// per element (duplicate detection, defaulting, validation and the
// ATTLIST declaration each once had one) makes the wide document tens
// of times slower. The wide one must take under three times as long
// (best of five, interleaved).
func TestAttributeCostLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("times 20k-attribute parses")
	}
	const n = 20000
	wide, spread := attrDocs(n)
	run := func(src string, elems int) time.Duration {
		runtime.GC()
		start := time.Now()
		res, err := xmlparse.Parse(src, xmlparse.Options{ApplyDefaults: true})
		if err != nil {
			t.Fatal(err)
		}
		if errs := res.DTD.Validate(res.Doc, dtd.ValidateOptions{}); errs != nil {
			t.Fatal(errs)
		}
		took := time.Since(start)
		if got, want := res.Doc.ReadArena().CountElemAttrs(), elems+n+n/10; got != want {
			t.Fatalf("%d elements and attributes parsed, want %d", got, want)
		}
		return took
	}
	bestWide, bestSpread := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < 5; r++ {
		bestWide = min(bestWide, run(wide, 2))
		bestSpread = min(bestSpread, run(spread, 1+n/10))
	}
	ratio := float64(bestWide) / float64(bestSpread)
	t.Logf("one element: %v; ten to an element: %v; ratio %.2f", bestWide, bestSpread, ratio)
	if ratio >= 3 {
		t.Errorf("%d attributes took %v on one element and %v ten to an element: %.1fx, want under 3x",
			n+n/10, bestWide, bestSpread, ratio)
	}
}
