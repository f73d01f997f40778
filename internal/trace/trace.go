package trace

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"xmlsec/internal/obs"
)

// maxSpans bounds the spans recorded per trace; a runaway loop (one
// span per node, say) must not turn one request into an unbounded
// allocation. Further spans are counted, not stored.
const maxSpans = 512

// maxAnnotations bounds the annotations recorded per span, for the
// same reason. Further annotations are counted, not stored.
const maxAnnotations = 32

// spanChunk is the arena granularity: spans are allocated in chunks of
// this many, so a typical traced request (half a dozen spans) costs one
// backing allocation rather than one per span.
const spanChunk = 8

// NewID returns a fresh request identifier: 16 lower-case hex digits.
// IDs are random, not sequential, so they can be exposed to clients
// without leaking request volume.
func NewID() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	v := rand.Uint64()
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&15]
		v >>= 4
	}
	return string(b[:])
}

// Trace is a sampled request's timing tree: its record's ID and a tree
// of timed spans. A Trace is safe for concurrent use (parallel index
// fills annotate concurrently); once its request ends it is immutable
// and may be read without locking through Snapshot.
type Trace struct {
	// ID is the request identifier (also the X-Request-ID header and
	// the audit record's request_id).
	ID string

	rec   *Recorder
	start time.Time

	mu       sync.Mutex
	name     string
	duration time.Duration // set by finish
	finished bool
	spans    []*Span // creation order; spans[0] is the root
	dropped  int     // spans not recorded beyond maxSpans
	arena    []Span  // chunked backing storage for spans
	// cost is the request's cost card, copied in when the request ends,
	// so /debug/traces shows what the request did alongside where its
	// time went.
	cost obs.CostCard
}

// Span is one timed region of a trace. The zero of *Span is a valid
// no-op: every method on a nil receiver does nothing, so untraced code
// paths pay neither allocation nor lock.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	depth int

	// Guarded by tr.mu.
	duration   time.Duration
	ended      bool
	ann        []annotation
	annDropped int
}

// annotation defers formatting to snapshot time, so recording one on
// the request path costs an append, not an fmt.Sprintf. The args are
// retained as long as the trace is (in the ring or on the slow board);
// callers pass values, not pointers into request state they intend to
// mutate.
type annotation struct {
	at     time.Time
	format string
	args   []any
}

// newTrace starts a trace rooted at a span named name.
func newTrace(rec *Recorder, id, name string, now time.Time) *Trace {
	tr := &Trace{ID: id, rec: rec, start: now, name: name}
	tr.spans = make([]*Span, 0, spanChunk)
	root := tr.alloc()
	root.tr, root.name, root.start = tr, name, now
	tr.spans = append(tr.spans, root)
	return tr
}

// alloc hands out one zeroed span from the trace's arena. Called with
// t.mu held (or before the trace is shared).
func (t *Trace) alloc() *Span {
	if len(t.arena) == 0 {
		t.arena = make([]Span, spanChunk)
	}
	sp := &t.arena[0]
	t.arena = t.arena[1:]
	return sp
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.spans[0]
}

// finish closes the root span, stamps the request's duration d and
// cost card, and hands the trace to its recorder's ring. Record.End
// calls it once, after all spans have ended; the trace is immutable
// afterwards.
func (t *Trace) finish(d time.Duration, cost *obs.CostCard) {
	t.mu.Lock()
	t.duration = d
	t.cost = *cost
	root := t.spans[0]
	if !root.ended {
		root.ended = true
		root.duration = d
	}
	t.finished = true
	t.mu.Unlock()
	t.rec.record(t)
}

// startSpan records a child of parent started at now, returning nil
// (and counting the drop) past the per-trace span bound.
func (t *Trace) startSpan(name string, parent *Span, now time.Time) *Span {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	sp := t.alloc()
	sp.tr, sp.name, sp.start, sp.depth = t, name, now, parent.depth+1
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span. Ending a span twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAfter(time.Since(s.start))
}

// endAfter closes the span with duration d.
func (s *Span) endAfter(d time.Duration) {
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.duration = d
	}
	s.tr.mu.Unlock()
}

// Lazyf attaches a formatted annotation to the span. Formatting is
// deferred to snapshot time (the /debug/traces read path), so the
// request path pays one append; at most maxAnnotations are kept per
// span, further ones are counted as dropped. Boxing the args slice
// allocates even on a nil span — hot paths guard with Traced():
//
//	if sp.Traced() { sp.Lazyf("%d hits", hits) }
func (s *Span) Lazyf(format string, args ...any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if len(s.ann) >= maxAnnotations {
		s.annDropped++
	} else {
		s.ann = append(s.ann, annotation{at: time.Now(), format: format, args: args})
	}
	s.tr.mu.Unlock()
}

// Traced reports whether the span records anything — the cheap guard
// for callers that would otherwise compute an annotation's inputs on
// the untraced path.
func (s *Span) Traced() bool { return s != nil }

// SpanSnapshot is one span of a finished trace, offsets relative to
// the trace start — the rows of a waterfall rendering.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Depth is the span's nesting level; the root span has depth 0.
	Depth int `json:"depth"`
	// OffsetNs is the span's start relative to the trace start.
	OffsetNs   int64 `json:"offset_ns"`
	DurationNs int64 `json:"duration_ns"`
	// Unfinished marks spans never End()ed before the request ended;
	// their duration runs to the trace end.
	Unfinished  bool     `json:"unfinished,omitempty"`
	Annotations []string `json:"annotations,omitempty"`
	// DroppedAnnotations counts annotations past the per-span bound.
	DroppedAnnotations int `json:"dropped_annotations,omitempty"`
}

// Snapshot is a finished trace rendered for /debug/traces.
type Snapshot struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	// Spans is the full tree in start order; omitted in list views.
	Spans []SpanSnapshot `json:"spans,omitempty"`
	// DroppedSpans counts spans past the per-trace bound.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Cost is the request's cost card once it has ended (see
	// obs.CostCard): the work receipt joined to the timing tree. Its
	// stages_ns is the trace's per-stage timing table.
	Cost *obs.CostCard `json:"cost,omitempty"`
}

// Snapshot renders the trace. withSpans selects the full waterfall;
// without it only the summary (ID, duration, cost card) is built.
// Snapshot is called on finished traces (the ring and the slow board
// hold only those); on a live trace it returns a best-effort copy.
func (t *Trace) Snapshot(withSpans bool) Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		ID:           t.ID,
		Name:         t.name,
		Start:        t.start,
		DurationNs:   t.duration.Nanoseconds(),
		DroppedSpans: t.dropped,
	}
	if t.finished {
		cost := t.cost
		s.Cost = &cost
	}
	if !withSpans {
		return s
	}
	s.Spans = make([]SpanSnapshot, 0, len(t.spans))
	for _, sp := range t.spans {
		d := sp.duration
		unfinished := !sp.ended
		if unfinished {
			// Runs to the trace end (or to now on a live trace).
			d = t.duration - sp.start.Sub(t.start)
			if !t.finished {
				d = time.Since(sp.start)
			}
		}
		ss := SpanSnapshot{
			Name:               sp.name,
			Depth:              sp.depth,
			OffsetNs:           sp.start.Sub(t.start).Nanoseconds(),
			DurationNs:         d.Nanoseconds(),
			Unfinished:         unfinished,
			DroppedAnnotations: sp.annDropped,
		}
		for _, a := range sp.ann {
			ss.Annotations = append(ss.Annotations, fmt.Sprintf("%s %s",
				a.at.Sub(t.start).Round(time.Microsecond), fmt.Sprintf(a.format, a.args...)))
		}
		s.Spans = append(s.Spans, ss)
	}
	return s
}
