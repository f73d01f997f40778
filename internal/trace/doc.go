// Package trace is the per-request record of the security processor,
// and its span recorder: a low-overhead, concurrency-safe tracer in the
// lineage of golang.org/x/net/trace and Dapper.
//
// Where the metrics layer (internal/obs) aggregates — "label took 40µs
// at p50 today" — the record answers the per-request questions
// aggregates cannot: why was THIS request slow, which authorizations
// did THIS decision evaluate, where inside the parse → label → prune →
// unparse cycle did THIS request's time go.
//
// The pieces:
//
//   - Record: one request's record — ID, start, method, route, status,
//     duration, its cost card (obs.CostCard) and, when sampled, its
//     Trace. The ID doubles as the HTTP X-Request-ID and is written
//     into audit records, so audit lines join to the slow board and to
//     traces. Records are pooled; the HTTP middleware begins one per
//     request and releases it once metrics, the slow board and the
//     trace ring have read it.
//   - Trace: a sampled request's tree of Spans.
//   - Span: one timed region (a cycle stage, an index fill, an XPath
//     evaluation) with bounded, lazily-formatted annotations.
//   - Timer: one cycle stage (obs.Stage), timed once — onto the
//     request's cost card, and as a span when the request is traced.
//   - Recorder: the sampling decision plus one bounded ring of the
//     last N completed traces. The slow board keeps the traces of the
//     slowest requests past the ring's churn.
//
// The record travels by context.Context, as the trace layer's one
// context value; every layer below the middleware calls
//
//	ctx, sp := trace.StartSpan(ctx, "authindex.fill")
//	defer sp.End()
//
// (or StartStage for a cycle stage) without knowing whether tracing is
// on. Each of these reads the context once. When the request is
// untraced (no recorder, or not sampled) StartSpan returns the context
// unchanged and a nil span, and every Span method is a nil-safe no-op —
// the untraced hot path performs no allocation and takes no lock.
package trace
