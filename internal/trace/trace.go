package trace

import (
	"context"
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
	return fmt.Sprintf("%016x", rand.Uint64())
}

// Trace is one request's record: an identifier shared with the HTTP
// response and the audit trail, and a tree of timed spans. A Trace is
// safe for concurrent use (parallel index fills annotate concurrently);
// after Finish it is immutable and may be read without locking through
// Snapshot.
type Trace struct {
	// ID is the request identifier (also the X-Request-ID header and
	// the audit record's request_id).
	ID string

	rec   *Recorder
	start time.Time

	mu       sync.Mutex
	name     string
	duration time.Duration // set by Finish
	finished bool
	spans    []*Span // creation order; spans[0] is the root
	dropped  int     // spans not recorded beyond maxSpans
	arena    []Span  // chunked backing storage for spans
	cost     *obs.CostCard
}

// SetCost attaches a copy of the request's cost card to the trace; the
// middleware calls it just before Finish, so /debug/traces shows what
// the traced request did alongside where its time went.
func (t *Trace) SetCost(c obs.CostCard) {
	if t == nil {
		return
	}
	t.mu.Lock()
	cc := c
	t.cost = &cc
	t.mu.Unlock()
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
// retained until the trace leaves the ring; callers pass values, not
// pointers into request state they intend to mutate.
type annotation struct {
	at     time.Time
	format string
	args   []any
}

// newTrace starts a trace rooted at a span named name.
func newTrace(rec *Recorder, name string, now time.Time) *Trace {
	tr := &Trace{ID: NewID(), rec: rec, start: now, name: name}
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

// Finish closes the root span, stamps the trace's total duration, and
// hands the trace to its recorder's rings. Finish must be called once,
// after all spans have ended; the trace is immutable afterwards.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	d := time.Since(t.start)
	t.duration = d
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

// context keys: one for the current span (the trace travels with it),
// one for the per-request scope — the request ID plus the cost card —
// set even when the request is untraced, so audit records always carry
// the ID and cost accounting works at any sampling rate.
type spanKey struct{}
type requestIDKey struct{}

// reqInfo is the per-request context payload: one context value carries
// both the ID and the cost card, so adding cost accounting did not add
// a second context allocation to the request path.
type reqInfo struct {
	id   string
	cost *obs.CostCard
}

// NewContext returns ctx carrying sp as the current span. Passing the
// result to StartSpan parents new spans under sp.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil when the request is
// untraced. The nil result is safe to use directly: all Span methods
// no-op on nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// FromContext returns the current trace, or nil.
func FromContext(ctx context.Context) *Trace {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.tr
	}
	return nil
}

// StartSpan starts a child of the context's current span and returns a
// context carrying it. On an untraced context it returns ctx unchanged
// and a nil span — no allocation, no lock.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tr.startSpan(name, parent, time.Now())
	if child == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, child), child
}

// StartChild starts a child of the context's current span without
// deriving a new context. For leaf spans — ones that never parent
// further spans — it saves the context allocation StartSpan pays.
func StartChild(ctx context.Context, name string) *Span {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.tr.startSpan(name, parent, time.Now())
}

// Timer times one stage of a request: End adds the elapsed time to the
// request's cost card (obs.CostCard.Stages), and a traced request also
// records the stage as a span, whose methods the Timer promotes. The
// zero Timer is a no-op. A Timer allocates nothing and reads the clock
// only when a card or a trace will record the reading.
type Timer struct {
	*Span
	card  *obs.CostCard
	stage obs.Stage
	start time.Duration // since epoch
}

// epoch anchors Timer readings: time.Since(epoch) reads only the
// monotonic clock, half the cost of time.Now.
var epoch = time.Now()

// StartStage starts timing stage st, returning a context that parents
// spans nested in the stage under it — StartSpan's shape for stages.
func StartStage(ctx context.Context, st obs.Stage) (context.Context, Timer) {
	t := StartStageChild(ctx, st)
	if t.Span != nil {
		ctx = context.WithValue(ctx, spanKey{}, t.Span)
	}
	return ctx, t
}

// StartStageChild starts timing stage st without deriving a context —
// StartChild's shape, for stages that parent no further spans.
func StartStageChild(ctx context.Context, st obs.Stage) Timer {
	card, parent := CostFromContext(ctx), SpanFromContext(ctx)
	if card == nil && parent == nil {
		return Timer{}
	}
	t := Timer{card: card, stage: st, start: time.Since(epoch)}
	if parent != nil {
		t.Span = parent.tr.startSpan(st.String(), parent, epoch.Add(t.start))
	}
	return t
}

// End adds the elapsed time (at least 1 ns, so a stage that ran is
// never zero) to the card and ends the span with the same duration.
func (t Timer) End() {
	if t.card == nil && t.Span == nil {
		return
	}
	d := time.Since(epoch) - t.start
	if t.card != nil {
		t.card.Stages[t.stage] += max(d.Nanoseconds(), 1)
	}
	if t.Span != nil {
		t.Span.endAfter(d)
	}
}

// WithRequestID returns ctx carrying the request identifier.
func WithRequestID(ctx context.Context, id string) context.Context {
	return WithRequest(ctx, id, nil)
}

// WithRequest returns ctx carrying the request identifier and the
// request's cost card (nil is fine: cost accounting is then off for
// this request). The two share one context value.
func WithRequest(ctx context.Context, id string, cost *obs.CostCard) context.Context {
	return context.WithValue(ctx, requestIDKey{}, reqInfo{id: id, cost: cost})
}

// RequestID returns the request identifier carried by ctx: the traced
// request's trace ID, the ID stamped by the middleware for untraced
// requests, or "" outside a request.
func RequestID(ctx context.Context) string {
	if ri, ok := ctx.Value(requestIDKey{}).(reqInfo); ok {
		return ri.id
	}
	if tr := FromContext(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// CostFromContext returns the request's cost card, or nil when the
// request carries none. Hot paths fetch the card once and guard their
// plain-field increments with a nil check:
//
//	if c := trace.CostFromContext(ctx); c != nil { c.NodesLabeled += n }
func CostFromContext(ctx context.Context) *obs.CostCard {
	if ri, ok := ctx.Value(requestIDKey{}).(reqInfo); ok {
		return ri.cost
	}
	return nil
}

// SpanSnapshot is one span of a finished trace, offsets relative to
// the trace start — the rows of a waterfall rendering.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Depth is the span's nesting level; the root span has depth 0.
	Depth int `json:"depth"`
	// OffsetNs is the span's start relative to the trace start.
	OffsetNs   int64 `json:"offset_ns"`
	DurationNs int64 `json:"duration_ns"`
	// Unfinished marks spans never End()ed before Finish; their
	// duration runs to the trace end.
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
	// Slow marks traces at or above the recorder's slow threshold.
	Slow bool `json:"slow,omitempty"`
	// Spans is the full tree in start order; omitted in list views.
	Spans []SpanSnapshot `json:"spans,omitempty"`
	// DroppedSpans counts spans past the per-trace bound.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Cost is the request's cost card, when the middleware attached one
	// (see obs.CostCard): the work receipt joined to the timing tree.
	// Its stages_ns is the trace's per-stage timing table.
	Cost *obs.CostCard `json:"cost,omitempty"`
}

// Snapshot renders the trace. withSpans selects the full waterfall;
// without it only the summary (ID, duration, cost card) is built.
// Snapshot is called on finished traces (the rings hold only those);
// on a live trace it returns a best-effort copy.
func (t *Trace) Snapshot(withSpans bool) Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		ID:           t.ID,
		Name:         t.name,
		Start:        t.start,
		DurationNs:   t.duration.Nanoseconds(),
		DroppedSpans: t.dropped,
		Cost:         t.cost,
	}
	if t.rec != nil && t.rec.slowThreshold > 0 && t.duration >= t.rec.slowThreshold {
		s.Slow = true
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

// Duration returns the finished trace's total duration.
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}
