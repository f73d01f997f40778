package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"xmlsec/internal/labexample"
	"xmlsec/internal/server"
	"xmlsec/internal/trace"
)

// E13 — the per-request tracing overhead. The recorder's contract:
// untraced requests stay allocation-free, and tracing at the default
// sampling rate (1 in trace.DefaultSampleEvery requests) adds <3% to
// the uncached serve path. The every-request mode is also measured —
// it is what an operator debugging with SampleEvery=1 pays, and it is
// why the default samples: a full span tree costs a few microseconds,
// which is a double-digit fraction of this processor's microsecond-
// scale cycles. The experiment emulates what the HTTP middleware does
// per request — begin a request record (which samples the trace), run
// ProcessContext under it, end and release it — so the measured delta
// is exactly what a deployment turns on.

// traceBenchResult is one measured mode, and the record format of
// BENCH_trace.json.
type traceBenchResult struct {
	Mode        string  `json:"mode"` // "untraced", "default", "every-request"
	SampleEvery int     `json:"sample_every,omitempty"`
	NsPerOp     float64 `json:"ns_op"`
	BytesOp     int64   `json:"bytes_op"`
	AllocsOp    int64   `json:"allocs_op"`
	OverheadPct float64 `json:"overhead_pct"` // vs the untraced row
}

func expTrace() error {
	type mode struct {
		name        string
		sampleEvery int // 0 = tracing disabled
	}
	modes := []mode{
		{"untraced", 0},
		{"default", trace.DefaultSampleEvery},
		{"every-request", 1},
	}

	type prepared struct {
		mode
		site     *server.Site
		rec      *trace.Recorder
		minBatch time.Duration
	}
	var runs []*prepared
	for _, m := range modes {
		// No view cache: every request runs the read cycle (label,
		// prune, unparse), so a trace carries its full span tree and the
		// overhead number covers the largest per-request span count.
		site, err := mkLabSite()
		if err != nil {
			return err
		}
		p := &prepared{mode: m, site: site}
		if m.sampleEvery > 0 {
			site.EnableTracing(trace.Options{Capacity: 64, SampleEvery: m.sampleEvery})
			p.rec = site.TraceRecorder()
		}
		runs = append(runs, p)
	}

	// request is the middleware's per-request work, minus the HTTP stack.
	request := func(p *prepared) error {
		ctx, rc := trace.Begin(context.Background(), p.rec, "", http.MethodGet, "/docs/")
		_, err := p.site.ProcessContext(ctx, labexample.Tom, labexample.DocURI)
		rc.End(http.StatusOK)
		rc.Release()
		return err
	}

	// The effect measured here (a few percent) is smaller than the load
	// drift of a shared host over a one-second benchmark run, so instead
	// of testing.Benchmark the modes run in tightly interleaved fixed
	// batches — every mode is sampled within milliseconds of the others —
	// and the fastest batch per mode is kept, discarding the rounds a
	// noisy neighbour disturbed.
	const batchOps = 100
	batches := 80
	if quick {
		batches = 20
	}
	for _, p := range runs { // warm caches and indexes
		if err := request(p); err != nil {
			return err
		}
	}
	for b := 0; b < batches; b++ {
		for _, p := range runs {
			start := time.Now()
			for i := 0; i < batchOps; i++ {
				if err := request(p); err != nil {
					return err
				}
			}
			if el := time.Since(start); p.minBatch == 0 || el < p.minBatch {
				p.minBatch = el
			}
		}
	}

	var results []traceBenchResult
	var nsBase float64
	fmt.Printf("%-14s %-14s %-14s %-12s %-10s\n", "mode", "ns/op", "bytes/op", "allocs/op", "overhead")
	for _, p := range runs {
		bytesOp, allocsOp, err := allocsPerOp(func() error { return request(p) })
		if err != nil {
			return err
		}
		r := traceBenchResult{
			Mode:        p.name,
			SampleEvery: p.sampleEvery,
			NsPerOp:     float64(p.minBatch.Nanoseconds()) / batchOps,
			BytesOp:     bytesOp,
			AllocsOp:    allocsOp,
		}
		overhead := "-"
		if p.sampleEvery == 0 {
			nsBase = r.NsPerOp
		} else if nsBase > 0 {
			r.OverheadPct = (r.NsPerOp - nsBase) / nsBase * 100
			overhead = fmt.Sprintf("%+.2f%%", r.OverheadPct)
		}
		results = append(results, r)
		fmt.Printf("%-14s %-14.0f %-14d %-12d %-10s\n",
			r.Mode, r.NsPerOp, r.BytesOp, r.AllocsOp, overhead)
	}
	fmt.Printf("(untraced = no recorder installed; default = 1-in-%d sampling;\n", trace.DefaultSampleEvery)
	fmt.Println(" every-request = SampleEvery 1, the debugging mode; overhead is added")
	fmt.Println(" latency relative to the untraced baseline, uncached serve path)")

	return writeJSON(results)
}
