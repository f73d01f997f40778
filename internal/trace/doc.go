// Package trace is the per-request tracing layer of the security
// processor: a low-overhead, concurrency-safe span recorder in the
// lineage of golang.org/x/net/trace and Dapper.
//
// Where the metrics layer (internal/obs) aggregates — "label took 40µs
// at p50 today" — a trace answers the per-request questions aggregates
// cannot: why was THIS request slow, which authorizations did THIS
// decision evaluate, where inside the parse → label → prune → unparse
// cycle did THIS request's time go.
//
// The pieces:
//
//   - Trace: one request's record — an ID, a start instant, and a tree
//     of Spans. The ID doubles as the HTTP X-Request-ID and is written
//     into audit records, so audit lines join to traces.
//   - Span: one timed region (a cycle stage, an index fill, an XPath
//     evaluation) with bounded, lazily-formatted annotations.
//   - Timer: one cycle stage (obs.Stage), timed once — onto the
//     request's cost card, and as a span when the request is traced.
//   - Recorder: the sampling decision plus two bounded rings of
//     completed traces — the last N requests, and an always-keep
//     capture of requests at or above a slow threshold.
//
// Traces travel by context.Context: the HTTP middleware starts the
// root span and stores it with NewContext; every layer below calls
//
//	ctx, sp := trace.StartSpan(ctx, "authindex.fill")
//	defer sp.End()
//
// (or StartStage for a cycle stage) without knowing whether tracing is
// on. When the request is untraced (no recorder, or not sampled)
// StartSpan returns the context unchanged and a nil span, and every
// Span method is a nil-safe no-op — the untraced hot path performs no
// allocation and takes no lock.
package trace
