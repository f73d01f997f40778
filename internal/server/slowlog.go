package server

import (
	"sort"
	"sync"
	"time"

	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
)

// SlowEntry is one slow-request capture, copied from the request's
// record when the board admits it: the request's identity (route,
// method, status, X-Request-ID), when it ran and for how long, and its
// full cost card. The board keeps the *work receipt* of the worst
// offenders — and, for sampled ones, their traces — so "why was this
// request slow" is answerable after the trace ring has churned.
type SlowEntry struct {
	RequestID  string       `json:"request_id"`
	Method     string       `json:"method"`
	Route      string       `json:"route"`
	Status     int          `json:"status"`
	Start      time.Time    `json:"start"`
	DurationNs int64        `json:"duration_ns"`
	Cost       obs.CostCard `json:"cost"`

	tr *trace.Trace // the request's trace, nil when it was not sampled
}

// slowLog is a bounded worst-offender ring: requests at or above the
// threshold are recorded until the log is full, after which a new entry
// must beat the current minimum duration to enter (evicting it). The
// result is the max-K slowest requests seen, not the most recent K —
// an outlier survives however much fast traffic follows it. Reset
// clears the board, so operators can re-arm after investigating.
type slowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	max       int
	entries   []SlowEntry

	recorded uint64 // entries accepted (including ones later evicted)
	observed uint64 // requests at/above threshold offered
}

// newSlowLog builds a log keeping the max worst requests at or above
// threshold. threshold 0 captures every request (useful in tests and
// when hunting a regression); max ≤ 0 selects 64.
func newSlowLog(threshold time.Duration, max int) *slowLog {
	if max <= 0 {
		max = 64
	}
	return &slowLog{threshold: threshold, max: max}
}

// record offers one ended request to the log, copying its record only
// when the board admits it; it reports whether the request made the
// board (so the caller can emit a matching structured log line for
// admitted requests only).
func (l *slowLog) record(rc *trace.Record) bool {
	if l == nil || rc.Duration < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observed++
	i := len(l.entries)
	if i < l.max {
		l.entries = append(l.entries, SlowEntry{})
	} else {
		// Full: the new entry must beat the current minimum to enter.
		i = 0
		for j := 1; j < len(l.entries); j++ {
			if l.entries[j].DurationNs < l.entries[i].DurationNs {
				i = j
			}
		}
		if rc.Duration.Nanoseconds() <= l.entries[i].DurationNs {
			return false
		}
	}
	l.entries[i] = SlowEntry{
		RequestID: rc.ID, Method: rc.Method, Route: rc.Route, Status: rc.Status,
		Start: rc.Start, DurationNs: rc.Duration.Nanoseconds(), Cost: rc.Cost, tr: rc.Trace,
	}
	l.recorded++
	return true
}

// lookupTrace returns the trace of the request id while it is on the
// board, or nil.
func (l *slowLog) lookupTrace(id string) *trace.Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		if e.RequestID == id {
			return e.tr
		}
	}
	return nil
}

// Snapshot returns the current entries, slowest first.
func (l *slowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SlowEntry, len(l.entries))
	copy(out, l.entries)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurationNs > out[j].DurationNs })
	return out
}

// Stats reports how many requests crossed the threshold and how many
// were admitted to the board.
func (l *slowLog) StatsCounts() (observed, recorded uint64, size int) {
	if l == nil {
		return 0, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.observed, l.recorded, len(l.entries)
}

// Reset clears the board (counters are kept: they are cumulative).
func (l *slowLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	clear(l.entries) // drop the evicted entries' traces
	l.entries = l.entries[:0]
	l.mu.Unlock()
}

// EnableSlowLog turns on the slow-request log: requests whose total
// duration is at or above threshold are captured with their cost cards
// and served at GET /debug/slowz, bounded to the max worst offenders
// (≤0 selects 64); a sampled one's trace stays at /debug/traces/{id}
// while it is on the board. A zero threshold captures everything.
// Returns the site for chaining; call before Handler(), like the other
// options.
func (s *Site) EnableSlowLog(threshold time.Duration, max int) *Site {
	s.slow = newSlowLog(threshold, max)
	return s
}

// SlowLog returns the current slow-request entries, slowest first
// (nil when the slow log is disabled).
func (s *Site) SlowLog() []SlowEntry {
	if s.slow == nil {
		return nil
	}
	return s.slow.Snapshot()
}
