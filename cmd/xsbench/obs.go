package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
	"xmlsec/internal/server"
	"xmlsec/internal/trace"
)

// E17 — the per-request cost-accounting overhead. The cost card's
// contract: carrying it costs no allocations beyond the seed serve
// path (the card comes from a pool and rides in the same context value
// the request ID already occupied) and ≤2% added latency. Both
// scenarios that matter are measured: the fully on-line cycle (every
// read stage runs, so every counter and stage timer in the card is
// exercised) and the cached serve path (the microsecond-scale hot path
// where a fixed overhead would weigh the most). The baseline is what
// the seed middleware did per request — thread a request ID through
// the context — so the measured delta is exactly what cost accounting
// adds.

// obsBenchResult is one measured scenario+mode, and the record format
// of BENCH_obs.json.
type obsBenchResult struct {
	Scenario    string  `json:"scenario"` // "online", "cached"
	Mode        string  `json:"mode"`     // "no-card", "card"
	NsPerOp     float64 `json:"ns_op"`
	BytesOp     int64   `json:"bytes_op"`
	AllocsOp    int64   `json:"allocs_op"`
	OverheadPct float64 `json:"overhead_pct"` // median paired-batch delta vs the scenario's no-card row
}

func expObs() error {
	type prepared struct {
		scenario string
		card     bool
		site     *server.Site
		batches  []float64 // every batch's duration, in round order
	}
	mk := func(scenario string, card bool) (*prepared, error) {
		site, err := mkLabSite()
		if err != nil {
			return nil, err
		}
		switch scenario {
		case "online":
			site.ParsePerRequest = true
			site.ValidateViews = true
		case "cached":
			site.EnableViewCache(64)
		}
		return &prepared{scenario: scenario, card: card, site: site}, nil
	}
	var runs []*prepared
	for _, scenario := range []string{"online", "cached"} {
		for _, card := range []bool{false, true} {
			p, err := mk(scenario, card)
			if err != nil {
				return err
			}
			runs = append(runs, p)
		}
	}

	// request is the middleware's per-request work, minus the HTTP
	// stack: the no-card mode threads the request ID the way the seed
	// did; the card mode additionally checks a card out of the pool,
	// folds it into the same context value, feeds the stage histograms
	// from it at completion, and returns it — the full accounting cycle
	// a production request pays, stage timing included.
	stages := obs.NewStageHistograms(obs.NewRegistry().NewHistogramVec(
		"stage_seconds", "Stage time.", obs.DefStageBuckets, "stage"))
	request := func(p *prepared) error {
		ctx := context.Background()
		if p.card {
			c := obs.GetCostCard()
			ctx = trace.WithRequest(ctx, "bench", c)
			_, err := p.site.ProcessContext(ctx, labexample.Tom, labexample.DocURI)
			stages.Observe(c)
			obs.PutCostCard(c)
			return err
		}
		ctx = trace.WithRequestID(ctx, "bench")
		_, err := p.site.ProcessContext(ctx, labexample.Tom, labexample.DocURI)
		return err
	}

	// The effect is smaller than shared-host load drift, so the modes
	// run in tightly interleaved fixed batches, in alternating order
	// from round to round, each after a collection and a few untimed
	// requests (no collection lands in a timed batch). ns/op is the
	// fastest batch; the overhead is the median over rounds of each
	// card batch against the no-card batch next to it.
	const batchOps, warmOps = 100, 10
	rounds := 200
	if quick {
		rounds = 20
	}
	for _, p := range runs { // warm caches, indexes, and the card pool
		if err := request(p); err != nil {
			return err
		}
	}
	for round := 0; round < rounds; round++ {
		for k := range runs {
			if round%2 == 1 {
				k = len(runs) - 1 - k
			}
			p := runs[k]
			runtime.GC()
			for i := 0; i < warmOps; i++ {
				if err := request(p); err != nil {
					return err
				}
			}
			start := time.Now()
			for i := 0; i < batchOps; i++ {
				if err := request(p); err != nil {
					return err
				}
			}
			p.batches = append(p.batches, float64(time.Since(start)))
		}
	}

	var results []obsBenchResult
	base := map[string]*prepared{}
	fmt.Printf("%-10s %-9s %-12s %-12s %-12s %-10s\n", "scenario", "mode", "ns/op", "bytes/op", "allocs/op", "overhead")
	for _, p := range runs {
		bytesOp, allocsOp, err := allocsPerOp(func() error { return request(p) })
		if err != nil {
			return err
		}
		mode := "no-card"
		if p.card {
			mode = "card"
		}
		r := obsBenchResult{
			Scenario: p.scenario,
			Mode:     mode,
			NsPerOp:  slices.Min(p.batches) / batchOps,
			BytesOp:  bytesOp,
			AllocsOp: allocsOp,
		}
		overhead := "-"
		if !p.card {
			base[p.scenario] = p
		} else if b := base[p.scenario]; b != nil {
			ratios := make([]float64, len(p.batches))
			for i := range ratios {
				ratios[i] = p.batches[i] / b.batches[i]
			}
			slices.Sort(ratios)
			r.OverheadPct = (ratios[len(ratios)/2] - 1) * 100
			overhead = fmt.Sprintf("%+.2f%%", r.OverheadPct)
		}
		results = append(results, r)
		fmt.Printf("%-10s %-9s %-12.0f %-12d %-12d %-10s\n",
			r.Scenario, r.Mode, r.NsPerOp, r.BytesOp, r.AllocsOp, overhead)
	}
	fmt.Println("(no-card = the seed serve path, request ID threaded through the context;")
	fmt.Println(" card = pooled cost card folded into the same context value, every counter")
	fmt.Println(" and stage timer live, stage histograms fed at completion; online = fully")
	fmt.Println(" on-line cycle, cached = class-keyed view-cache hit)")

	return writeJSON(results)
}
