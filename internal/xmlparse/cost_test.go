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

// attrDoc is an element with n attributes, all declared, plus n/10
// declared attributes with defaults that parsing supplies.
func attrDoc(n int) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE a [<!ELEMENT a EMPTY><!ATTLIST a")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " a%d CDATA #IMPLIED", i)
	}
	for i := 0; i < n/10; i++ {
		fmt.Fprintf(&b, " d%d CDATA 'x'", i)
	}
	b.WriteString(">]><a")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " a%d='%d'", i, i%10)
	}
	b.WriteString("/>")
	return b.String()
}

// TestAttributeCostLinear pins that parsing, defaulting and validating
// an element costs time linear in its attribute count. Ten times the
// attributes must take under twenty times as long (best of three
// each); linear work measures about 10x, the quadratic scans that
// duplicate detection, defaulting, validation and DTD declaration once
// did about 100x.
func TestAttributeCostLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("times 200k-attribute parses")
	}
	best := func(n int) time.Duration {
		src := attrDoc(n)
		fastest := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			res, err := xmlparse.Parse(src, xmlparse.Options{ApplyDefaults: true})
			if err != nil {
				t.Fatal(err)
			}
			if errs := res.DTD.Validate(res.Doc, dtd.ValidateOptions{}); errs != nil {
				t.Fatal(errs)
			}
			fastest = min(fastest, time.Since(start))
			if got := len(res.Doc.DocumentElement().Attrs); got != n+n/10 {
				t.Fatalf("%d attributes parsed, want %d", got, n+n/10)
			}
		}
		return fastest
	}
	small, large := best(20000), best(200000)
	if ratio := float64(large) / float64(small); ratio >= 20 {
		t.Errorf("200k attributes took %v, 20k took %v: %.1fx for 10x the input, want under 20x", large, small, ratio)
	}
}
