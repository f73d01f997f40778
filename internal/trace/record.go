package trace

import (
	"context"
	"sync"
	"time"

	"xmlsec/internal/obs"
)

// Record is one request's record: its identity, how it ended, the cost
// card its layers itemize their work and stage times onto, and, when
// the request is sampled, its span tree. The HTTP middleware begins one
// per request and every per-request channel derives from it: the stage
// histograms and request metrics read it when the request ends, the
// audit trail copies its ID and card at the access decision, the slow
// board copies it when it admits the request, and a sampled request's
// trace keeps a copy of its card.
//
// Records are pooled. A record belongs to its request from Begin to
// Release and is written only by the goroutine serving it, so the card
// takes plain adds; whatever outlives the request copies what it keeps.
type Record struct {
	ID       string
	Start    time.Time
	Method   string
	Route    string
	Status   int           // set by End
	Duration time.Duration // set by End
	Cost     obs.CostCard
	// Trace is the request's span tree, or nil when it is not sampled.
	Trace *Trace

	// scope is the record's root context node: carrying the record in a
	// context allocates nothing.
	scope scope
}

var recordPool = sync.Pool{New: func() any { return new(Record) }}

// Begin starts the record of one request under ctx and returns the
// context that carries it. id is the request identifier ("" mints a
// fresh one); rec makes the sampling decision (nil samples nothing),
// and a sampled request's trace is named "method route" and takes the
// record's ID. The caller must End and then Release the record.
func Begin(ctx context.Context, rec *Recorder, id, method, route string) (context.Context, *Record) {
	r := recordPool.Get().(*Record)
	if id == "" {
		id = NewID()
	}
	r.ID, r.Start, r.Method, r.Route = id, time.Now(), method, route
	r.Cost.Class = -1
	r.scope = scope{Context: ctx, rec: r}
	if r.Trace = rec.start(id, method, route, r.Start); r.Trace != nil {
		r.scope.span = r.Trace.Root()
	}
	return &r.scope, r
}

// End stamps the request's status and duration and finishes its trace,
// which copies the card and enters the recorder's ring.
func (r *Record) End(status int) {
	r.Status, r.Duration = status, time.Since(r.Start)
	if r.Trace != nil {
		r.Trace.Root().Lazyf("status %d", status)
		r.Trace.finish(r.Duration, &r.Cost)
	}
}

// Release returns the record to the pool. Neither the record nor a
// context carrying it may be used afterwards.
func (r *Record) Release() {
	*r = Record{}
	recordPool.Put(r)
}

// scope is a context node carrying a request's record and its current
// span: the trace layer's one context value. The record's root scope is
// embedded in the record; a traced StartSpan or StartStage derives a
// new scope holding the child span, so spans started under it nest.
type scope struct {
	context.Context
	rec  *Record
	span *Span // nil when the request is not sampled
}

// recordKey is the one context key of the trace layer.
type recordKey struct{}

func (s *scope) Value(key any) any {
	if key == (recordKey{}) {
		return s
	}
	return s.Context.Value(key)
}

func scopeOf(ctx context.Context) *scope {
	s, _ := ctx.Value(recordKey{}).(*scope)
	return s
}

// RecordFromContext returns the request record ctx carries, or nil
// outside a request.
func RecordFromContext(ctx context.Context) *Record {
	if s := scopeOf(ctx); s != nil {
		return s.rec
	}
	return nil
}

// RequestID returns the request identifier ctx carries, or "" outside a
// request.
func RequestID(ctx context.Context) string {
	if s := scopeOf(ctx); s != nil {
		return s.rec.ID
	}
	return ""
}

// CostFromContext returns the request's cost card, or nil outside a
// request. Hot paths fetch the card once and guard their plain-field
// increments with a nil check:
//
//	if c := trace.CostFromContext(ctx); c != nil { c.NodesLabeled += n }
func CostFromContext(ctx context.Context) *obs.CostCard {
	if s := scopeOf(ctx); s != nil {
		return &s.rec.Cost
	}
	return nil
}

// SpanFromContext returns the current span, or nil when the request is
// untraced. The nil result is safe to use directly: all Span methods
// no-op on nil.
func SpanFromContext(ctx context.Context) *Span {
	if s := scopeOf(ctx); s != nil {
		return s.span
	}
	return nil
}

// child starts a span named name under the scope's current span, or
// returns nil when the request is untraced or past its span bound.
func (s *scope) child(name string) *Span {
	if s == nil || s.span == nil {
		return nil
	}
	return s.span.tr.startSpan(name, s.span, time.Now())
}

// under returns a context whose current span is sp, or ctx itself when
// sp is nil: only traced requests derive a scope.
func (s *scope) under(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return &scope{Context: ctx, rec: s.rec, span: sp}
}

// StartSpan starts a child of the context's current span and returns a
// context carrying it. On an untraced context it returns ctx unchanged
// and a nil span — no allocation, no lock.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := scopeOf(ctx)
	sp := s.child(name)
	return s.under(ctx, sp), sp
}

// StartChild starts a child of the context's current span without
// deriving a new context. For leaf spans — ones that never parent
// further spans — it saves the scope StartSpan derives.
func StartChild(ctx context.Context, name string) *Span {
	return scopeOf(ctx).child(name)
}

// Timer times one stage of a request: End adds the elapsed time to the
// request's cost card (obs.CostCard.Stages), and a traced request also
// records the stage as a span, whose methods the Timer promotes. The
// zero Timer is a no-op. A Timer allocates nothing and reads the clock
// only inside a request.
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
	s := scopeOf(ctx)
	t := s.stage(st)
	return s.under(ctx, t.Span), t
}

// StartStageChild starts timing stage st without deriving a context —
// StartChild's shape, for stages that parent no further spans.
func StartStageChild(ctx context.Context, st obs.Stage) Timer {
	return scopeOf(ctx).stage(st)
}

func (s *scope) stage(st obs.Stage) Timer {
	if s == nil {
		return Timer{}
	}
	t := Timer{card: &s.rec.Cost, stage: st, start: time.Since(epoch)}
	if s.span != nil {
		t.Span = s.span.tr.startSpan(st.String(), s.span, epoch.Add(t.start))
	}
	return t
}

// End adds the elapsed time (at least 1 ns, so a stage that ran is
// never zero) to the card and ends the span with the same duration.
func (t Timer) End() {
	if t.card == nil {
		return
	}
	d := time.Since(epoch) - t.start
	t.card.Stages[t.stage] += max(d.Nanoseconds(), 1)
	if t.Span != nil {
		t.Span.endAfter(d)
	}
}
