package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram bounds for request and
// stage latencies, in seconds: 100µs up to 10s, roughly logarithmic.
// The processor's per-stage costs on example-sized documents sit in the
// sub-millisecond range, while full requests on large documents under
// load reach tens of milliseconds, so the range covers both with
// resolution where the mass is.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefStageBuckets extends DefLatencyBuckets down to 1µs: individual
// cycle stages (label, prune, unparse) on example-sized documents run
// in single-digit microseconds, far below HTTP-level latencies, and
// would otherwise collapse into the first request bucket.
var DefStageBuckets = append([]float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
}, DefLatencyBuckets...)

// atomicFloat is a float64 with atomic add via CAS on the bit pattern.
// It is the one lock-free accumulation loop in the package — Gauge and
// Histogram sums both ride on it — so its contention behaviour is
// pinned by TestAtomicFloatContention in race_test.go.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bucket semantics
// follow Prometheus: bucket i counts observations v ≤ bounds[i], with
// an implicit final +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// snapshot captures the histogram with cumulative bucket counts.
func (h *Histogram) snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{Buckets: make([]Bucket, 0, len(h.counts))}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		le := "+Inf"
		if i < len(h.bounds) {
			bound = h.bounds[i]
			le = formatFloat(bound)
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Bound: bound, Count: cum})
	}
	// The count is the bucket total, so it always agrees with the
	// buckets; the sum is loaded after them.
	s.Sum = h.sum.Load()
	s.Count = cum
	return s
}

// key joins label values into a map key; \x1f cannot appear in any
// sane label value, and a collision would only merge two series.
func key(values []string) string { return strings.Join(values, "\x1f") }

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	labels []string
	mu     sync.RWMutex
	kids   map[string]*counterKid
}

type counterKid struct {
	values []string
	c      Counter
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the declared label names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec%v.With got %d values", v.labels, len(values)))
	}
	k := key(values)
	v.mu.RLock()
	kid := v.kids[k]
	v.mu.RUnlock()
	if kid == nil {
		v.mu.Lock()
		if kid = v.kids[k]; kid == nil {
			kid = &counterKid{values: append([]string(nil), values...)}
			v.kids[k] = kid
		}
		v.mu.Unlock()
	}
	return &kid.c
}

// HistogramVec is a family of histograms distinguished by label values;
// all children share the same bucket bounds.
type HistogramVec struct {
	labels []string
	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*histogramKid
}

type histogramKid struct {
	values []string
	h      *Histogram
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: HistogramVec%v.With got %d values", v.labels, len(values)))
	}
	k := key(values)
	v.mu.RLock()
	kid := v.kids[k]
	v.mu.RUnlock()
	if kid == nil {
		v.mu.Lock()
		if kid = v.kids[k]; kid == nil {
			kid = &histogramKid{values: append([]string(nil), values...), h: newHistogram(v.bounds)}
			v.kids[k] = kid
		}
		v.mu.Unlock()
	}
	return kid.h
}

// Registry holds metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]bool
}

// family is one named metric with its collection closure; collect
// returns the current series (one per label combination, sorted).
type family struct {
	name, help, typ string
	collect         func() []series
}

type series struct {
	labels []Label
	value  float64            // counter/gauge
	hist   *HistogramSnapshot // histogram
}

// Label is one name/value pair of a metric series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(name, help, typ string, collect func() []series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic("obs: duplicate metric " + name)
	}
	r.byName[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, collect: collect})
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func() []series {
		return []series{{value: float64(c.Value())}}
	})
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at
// collection time — for counts already tracked elsewhere.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func() []series {
		return []series{{value: fn()}}
	})
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func() []series {
		return []series{{value: g.Value()}}
	})
	return g
}

// NewGaugeFunc registers a gauge read from fn at collection time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func() []series {
		return []series{{value: fn()}}
	})
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (nil selects DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func() []series {
		return []series{{hist: h.snapshot()}}
	})
	return h
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, kids: make(map[string]*counterKid)}
	r.register(name, help, "counter", func() []series {
		v.mu.RLock()
		defer v.mu.RUnlock()
		out := make([]series, 0, len(v.kids))
		for _, kid := range v.kids {
			out = append(out, series{labels: zipLabels(labels, kid.values), value: float64(kid.c.Value())})
		}
		sortSeries(out)
		return out
	})
	return v
}

// NewHistogramVec registers a labeled histogram family (nil bounds
// selects DefLatencyBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	v := &HistogramVec{labels: labels, bounds: bounds, kids: make(map[string]*histogramKid)}
	r.register(name, help, "histogram", func() []series {
		v.mu.RLock()
		defer v.mu.RUnlock()
		out := make([]series, 0, len(v.kids))
		for _, kid := range v.kids {
			out = append(out, series{labels: zipLabels(labels, kid.values), hist: kid.h.snapshot()})
		}
		sortSeries(out)
		return out
	})
	return v
}

func zipLabels(names, values []string) []Label {
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Name: names[i], Value: values[i]}
	}
	return out
}

func sortSeries(s []series) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i].labels, s[j].labels
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k].Value != b[k].Value {
				return a[k].Value < b[k].Value
			}
		}
		return len(a) < len(b)
	})
}
