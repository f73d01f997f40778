package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runExp executes one experiment function with stdout captured, so the
// harness itself is covered by go test (the heavy sweeps are skipped;
// quick mode is forced).
func runExp(t *testing.T, fn func() error) string {
	t.Helper()
	quick = true
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		outCh <- b.String()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-outCh
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func TestExpFig1(t *testing.T) {
	out := runExp(t, expFig1)
	if !strings.Contains(out, "valid instance, 26 element+attribute nodes") {
		t.Errorf("fig1 output:\n%s", out)
	}
}

func TestExpFig3(t *testing.T) {
	out := runExp(t, expFig3)
	if !strings.Contains(out, "View of Tom@130.100.50.8(infosys.bld1.it)") {
		t.Errorf("fig3 missing Tom's view:\n%s", out)
	}
	if strings.Contains(out, "Security Markup") {
		// Sam's view legitimately contains it; Tom's must not. Check
		// ordering: the first view block is Tom's.
		tomBlock := out[:strings.Index(out, "View of Sam")]
		if strings.Contains(tomBlock, "Security Markup") {
			t.Errorf("Tom's view leaked private paper:\n%s", tomBlock)
		}
	}
}

func TestExpLoosen(t *testing.T) {
	out := runExp(t, expLoosen)
	if !strings.Contains(out, "loosening invariant held for 4/4") {
		t.Errorf("loosen output:\n%s", out)
	}
}

func TestExpConflict(t *testing.T) {
	out := runExp(t, expConflict)
	for _, rule := range []string{
		"denials-take-precedence", "permissions-take-precedence",
		"nothing-takes-precedence", "majority-takes-precedence",
	} {
		if !strings.Contains(out, rule) {
			t.Errorf("conflict output missing %s:\n%s", rule, out)
		}
	}
}

func TestExpSubjectsAndXPath(t *testing.T) {
	out := runExp(t, expSubjects)
	if !strings.Contains(out, "Leq ns/op") {
		t.Errorf("subjects output:\n%s", out)
	}
	out = runExp(t, expXPath)
	if !strings.Contains(out, "//fund/ancestor::project") {
		t.Errorf("xpath output:\n%s", out)
	}
}

func TestExpCache(t *testing.T) {
	out := runExp(t, expCache)
	if !strings.Contains(out, "view cache") {
		t.Errorf("cache output:\n%s", out)
	}
}

func TestExpStages(t *testing.T) {
	out := runExp(t, expStages)
	for _, stage := range []string{"label", "prune", "unparse"} {
		if !strings.Contains(out, "\n"+stage+" ") {
			t.Errorf("stages output missing %s:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "60 uncached GETs") {
		t.Errorf("stages output:\n%s", out)
	}
}

func TestExpPipeline(t *testing.T) {
	out := runExp(t, expPipeline)
	for _, doc := range []string{"CSlab", "synthetic-"} {
		if !strings.Contains(out, doc) {
			t.Errorf("pipeline output missing %s:\n%s", doc, out)
		}
	}
}
