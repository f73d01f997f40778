package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "a counter")
	g := reg.NewGauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-5.565) > 1e-9 {
		t.Errorf("sum = %v, want 5.565", s.Sum)
	}
	// Cumulative: ≤0.01 holds 2 (0.005 and the boundary value 0.01),
	// ≤0.1 holds 3, ≤1 holds 4, +Inf holds all 5.
	want := []uint64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %s = %d, want %d", b.LE, b.Count, want[i])
		}
	}
	if s.Buckets[len(s.Buckets)-1].LE != "+Inf" {
		t.Errorf("last bucket le = %q", s.Buckets[len(s.Buckets)-1].LE)
	}
}

func TestQuantileAndMean(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h_seconds", "", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5) // 0.5, 1.5, 2.5, 3.5 evenly
	}
	s := h.snapshot()
	if m := s.Mean(); math.Abs(m-2) > 1e-9 {
		t.Errorf("mean = %v, want 2", m)
	}
	if q := s.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("p50 = %v, want within [1,3]", q)
	}
	if q := s.Quantile(0.99); q < 3 || q > 4 {
		t.Errorf("p99 = %v, want within [3,4]", q)
	}
	empty := (&HistogramSnapshot{}).Quantile(0.9)
	if empty != 0 {
		t.Errorf("empty quantile = %v", empty)
	}
}

func TestVecChildren(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("req_total", "requests", "route", "status")
	cv.With("/docs/", "200").Add(3)
	cv.With("/docs/", "404").Inc()
	if got := cv.With("/docs/", "200").Value(); got != 3 {
		t.Errorf("child = %d, want 3", got)
	}
	hv := reg.NewHistogramVec("dur_seconds", "", []float64{1}, "route")
	hv.With("/docs/").Observe(0.5)
	if hv.With("/docs/") != hv.With("/docs/") {
		t.Error("With should return the same child")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity should panic")
		}
	}()
	cv.With("only-one")
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("xmlsec_things_total", "Things that happened.")
	c.Add(7)
	reg.NewGaugeFunc("xmlsec_gen", "Generation.", func() float64 { return 42 })
	hv := reg.NewHistogramVec("xmlsec_stage_duration_seconds", "Stage latency.", []float64{0.1, 1}, "stage")
	hv.With("label").Observe(0.05)
	hv.With(`we"ird`).Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP xmlsec_things_total Things that happened.\n",
		"# TYPE xmlsec_things_total counter\n",
		"xmlsec_things_total 7\n",
		"# TYPE xmlsec_gen gauge\n",
		"xmlsec_gen 42\n",
		"# TYPE xmlsec_stage_duration_seconds histogram\n",
		`xmlsec_stage_duration_seconds_bucket{stage="label",le="0.1"} 1`,
		`xmlsec_stage_duration_seconds_bucket{stage="label",le="+Inf"} 1`,
		`xmlsec_stage_duration_seconds_sum{stage="label"} 0.05`,
		`xmlsec_stage_duration_seconds_count{stage="label"} 1`,
		`xmlsec_stage_duration_seconds_bucket{stage="we\"ird",le="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("a_total", "").Inc()
	reg.NewHistogram("b_seconds", "", []float64{1}).Observe(0.5)
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatalf("snapshot must be JSON-encodable (+Inf bounds excluded): %v", err)
	}
	s := string(b)
	for _, want := range []string{`"a_total"`, `"b_seconds"`, `"le":"+Inf"`} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot JSON missing %q:\n%s", want, s)
		}
	}
	snap := reg.Snapshot()
	if m := snap.Metric("a_total"); m == nil || m.Series[0].Value != 1 {
		t.Errorf("Metric lookup failed: %+v", m)
	}
	if snap.Metric("nope") != nil {
		t.Error("unknown metric should be nil")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	reg.NewGauge("dup", "")
}

// TestConcurrent drives every metric type from many goroutines while a
// reader renders the registry; meaningful under -race.
func TestConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "")
	g := reg.NewGauge("g", "")
	h := reg.NewHistogram("h_seconds", "", nil)
	cv := reg.NewCounterVec("cv_total", "", "k")
	hv := reg.NewHistogramVec("hv_seconds", "", nil, "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				g.Add(1)
				h.ObserveSince(time.Now())
				cv.With("a").Inc()
				hv.With("b").Observe(0.001)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			reg.Snapshot()
		}
	}()
	wg.Wait()
	if c.Value() != 1600 {
		t.Errorf("counter = %d, want 1600", c.Value())
	}
	if cv.With("a").Value() != 1600 {
		t.Errorf("vec counter = %d, want 1600", cv.With("a").Value())
	}
}

// TestCardStages pins the card's stage record: stages_ns names only
// the stages a request ran (none: an empty object), the object form
// round-trips, and the histogram feed observes each stage the card ran
// exactly once.
func TestCardStages(t *testing.T) {
	c := GetCostCard()
	defer PutCostCard(c)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stages_ns":{}`) {
		t.Errorf("card without stages must carry an empty stages_ns: %s", b)
	}
	c.Stages[StageLabel] = 1500
	c.Stages[StageWALAppend] = 7
	b, err = json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stages_ns":{"label":1500,"wal.append":7}`) {
		t.Errorf("stages_ns must list exactly the nonzero stages by name: %s", b)
	}
	var back CostCard
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != *c {
		t.Errorf("round trip: got %+v, want %+v", back, *c)
	}

	reg := NewRegistry()
	h := NewStageHistograms(reg.NewHistogramVec("stage_seconds", "Stage time.", DefStageBuckets, "stage"))
	h.Observe(c)
	m := reg.Snapshot().Metric("stage_seconds")
	for st := Stage(0); st < NumStages; st++ {
		s := m.Find("stage", st.String())
		if s == nil || s.Histogram == nil {
			t.Fatalf("stage %s not materialized", st)
		}
		want := uint64(0)
		if c.Stages[st] != 0 {
			want = 1
		}
		if s.Histogram.Count != want {
			t.Errorf("stage %s: %d observations, want %d", st, s.Histogram.Count, want)
		}
	}
	if got := m.Find("stage", "label").Histogram.Sum; math.Abs(got-1.5e-6) > 1e-12 {
		t.Errorf("label observed %g s, want 1.5e-6", got)
	}
}
