package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Recorder. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Capacity is the number of most-recent completed traces kept
	// (default 64).
	Capacity int
	// SampleEvery records every Nth request (default DefaultSampleEvery):
	// 1 traces everything, 100 traces one request in a hundred. Untraced
	// requests pay nothing beyond their request record.
	SampleEvery int
}

// DefaultSampleEvery is the sampling rate when Options leaves
// SampleEvery unset: one request in 16. Recording a full span tree
// costs a few microseconds per request, which is real money against
// this processor's microsecond-scale cycles; 1-in-16 amortizes that to
// a few percent while still filling the ring within seconds under any
// real traffic (see BENCH_trace.json). Set SampleEvery to 1 to trace
// every request while debugging.
const DefaultSampleEvery = 16

// Recorder makes the per-request sampling decision and keeps the last
// Capacity completed traces in a bounded ring. Ring insertion is one
// short critical section per completed trace; the request path itself
// never touches the ring. Keeping the slowest requests past the ring's
// churn is the slow board's job (see Record): it holds the traces of
// the requests it admits. A nil *Recorder is valid and records nothing.
type Recorder struct {
	sampleEvery int

	reqs    atomic.Uint64 // all requests offered, sampled or not
	sampled atomic.Uint64

	mu   sync.Mutex
	ring []*Trace // fixed capacity, overwrite-oldest
	next int      // index of the slot to overwrite
	full bool
}

// NewRecorder builds a recorder from opts.
func NewRecorder(opts Options) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = 64
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = DefaultSampleEvery
	}
	return &Recorder{sampleEvery: opts.SampleEvery, ring: make([]*Trace, opts.Capacity)}
}

// start makes the sampling decision for one request and returns its
// trace, rooted at a span named "method route", or nil when the request
// is not sampled (or r is nil). The caller must finish a non-nil trace.
func (r *Recorder) start(id, method, route string, now time.Time) *Trace {
	if r == nil {
		return nil
	}
	n := r.reqs.Add(1)
	// Sample the 1st, N+1th, … request rather than the Nth, so the very
	// first request after enabling tracing produces a trace.
	if r.sampleEvery > 1 && n%uint64(r.sampleEvery) != 1 {
		return nil
	}
	r.sampled.Add(1)
	return newTrace(r, id, method+" "+route, now)
}

// record files a finished trace into the ring.
func (r *Recorder) record(t *Trace) {
	r.mu.Lock()
	r.ring[r.next] = t
	r.next++
	if r.next == len(r.ring) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Stats reports requests offered and requests sampled since start.
func (r *Recorder) Stats() (requests, sampled uint64) {
	if r == nil {
		return 0, 0
	}
	return r.reqs.Load(), r.sampled.Load()
}

// Recent returns the completed traces in the ring, newest first.
func (r *Recorder) Recent() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.ring[(r.next-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Lookup finds a completed trace in the ring by ID.
func (r *Recorder) Lookup(id string) *Trace {
	for _, t := range r.Recent() {
		if t.ID == id {
			return t
		}
	}
	return nil
}
