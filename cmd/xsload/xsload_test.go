package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readTree returns every file under dir, keyed by relative path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func generate(t *testing.T, seed uint64, w *workload) (files map[string]string, schedule []byte) {
	t.Helper()
	s := genSite(seed, w.docs)
	dir := t.TempDir()
	if err := s.write(dir); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []uint64{2, 3} {
		for _, b := range render(s, genRequests(newRand(seed, stream), s, w, 2000)) {
			schedule = append(schedule, b...)
		}
	}
	return readTree(t, dir), schedule
}

func TestInputsFollowTheSeed(t *testing.T) {
	w := workloads[2] // mixed-write draws every kind of request
	files1, sched1 := generate(t, 7, w)
	files2, sched2 := generate(t, 7, w)
	files3, sched3 := generate(t, 8, w)
	if len(files1) != 2*w.docs+4 {
		t.Fatalf("site has %d files, want %d", len(files1), 2*w.docs+4)
	}
	for name, content := range files1 {
		if files2[name] != content {
			t.Errorf("seed 7 generated %s differently twice", name)
		}
	}
	if !bytes.Equal(sched1, sched2) {
		t.Error("seed 7 generated two different schedules")
	}
	if files1["users.conf"] == files3["users.conf"] || files1["docs/d00.xml"] == files3["docs/d00.xml"] {
		t.Error("seeds 7 and 8 generated the same site")
	}
	if bytes.Equal(sched1, sched3) {
		t.Error("seeds 7 and 8 generated the same schedule")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 19, q: 0.5, want: 10, ok: false}, // 9 beyond
		{n: 20, q: 0.5, want: 10, ok: true},
		{n: 999, q: 0.99, want: 990, ok: false}, // 9 beyond
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 1000, q: 0.999, want: 999, ok: false},
		{n: 10000, q: 0.999, want: 9990, ok: true},
	} {
		v, ok := percentile(samples(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}

	out := &outcome{}
	latencyMetrics(out, "read_", samples(1000))
	latencyMetrics(out, "update_", samples(15))
	got := map[string]string{}
	for _, m := range out.metrics {
		got[m.name] = m.note
	}
	for name, note := range map[string]string{"read_p50_ms": "n=1000", "read_p99_ms": "n=1000"} {
		if got[name] != note {
			t.Errorf("%s reported with %q, want %q", name, got[name], note)
		}
	}
	for _, name := range []string{"read_p999_ms", "update_p50_ms"} {
		if _, ok := got[name]; ok {
			t.Errorf("%s reported with too few samples beyond it", name)
		}
	}
}

// TestSmoke runs every workload for a fraction of a second against a
// freshly built xmlsecd, both the end-to-end and the traced run.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	bin, err := buildDaemon(out)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: 1, seconds: 0.3, out: out, xmlsecd: bin, conns: 2}
	for _, w := range workloads {
		res, err := runWorkload(cfg, w, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var printed bytes.Buffer
		for _, o := range res {
			o.print(&printed)
			if len(o.problems) > 0 {
				t.Errorf("%s: %s", w.name, strings.Join(o.problems, "; "))
			}
		}
		units := map[string]string{}
		for _, o := range res {
			for _, m := range o.metrics {
				units[m.name] = m.unit
			}
		}
		for _, name := range append(append([]string{"error_frac"}, endToEnd...), perLayer...) {
			if !strings.Contains(printed.String(), fmt.Sprintf("%s %s ", w.name, name)) || units[name] == "" {
				t.Errorf("%s: metric %s not printed with a unit", w.name, name)
			}
		}
		if !strings.Contains(printed.String(), w.name+" error_frac 0 ratio") {
			t.Errorf("%s: error_frac is not 0:\n%s", w.name, printed.String())
		}
		if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}
