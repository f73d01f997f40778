package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
)

// TestOneRequestRecord pins the single request record: each stage's
// time is taken once, onto the request's cost card, and every channel
// reads those numbers — the stage histograms get one observation per
// stage the request ran, and the trace, the slow board and the audit
// trail carry the same card — for a query, one that includes its
// evaluation. A query never unparses the view it reads, and the first
// GET of a view a query cached renders it.
func TestOneRequestRecord(t *testing.T) {
	site := durableLabSite(t, t.TempDir()).EnableViewCache(16).EnableSlowLog(0, 32)
	site.EnableTracing(trace.Options{Capacity: 16, SampleEvery: 1})
	var audit bytes.Buffer
	site.SetAuditLog(&audit)
	h := site.Handler()

	stageCounts := func() [obs.NumStages]uint64 {
		var out [obs.NumStages]uint64
		m := site.Metrics().Snapshot().Metric("xmlsec_stage_duration_seconds")
		for st := range out {
			s := m.Find("stage", obs.Stage(st).String())
			if s == nil || s.Histogram == nil {
				t.Fatalf("stage %s not materialized", obs.Stage(st))
			}
			out[st] = s.Histogram.Count
		}
		return out
	}

	const tom, sam = "130.100.50.8", "130.89.56.8"
	cases := []struct {
		name, method, path, user, ip, body string
		status                             int
		stages                             []obs.Stage
	}{
		// A query computes and caches the view but never renders it.
		{"uncached query", http.MethodGet, "/query/CSlab.xml?q=//title", "Tom", tom, "", http.StatusOK,
			[]obs.Stage{obs.StageLabel, obs.StagePrune}},
		// The first GET of that view hits the cache and renders its text.
		{"first GET of a cached view", http.MethodGet, "/docs/CSlab.xml", "Tom", tom, "", http.StatusOK,
			[]obs.Stage{obs.StageUnparse}},
		{"cached GET", http.MethodGet, "/docs/CSlab.xml", "Tom", tom, "", http.StatusOK, nil},
		// The query runs on the cached view; its audit record is written
		// after the evaluation, so it carries xpath_arena_evals too.
		{"query", http.MethodGet, "/query/CSlab.xml?q=//title", "Tom", tom, "", http.StatusOK, nil},
		{"PUT", http.MethodPut, "/docs/CSlab.xml", "Sam", sam, updatedCSlab, http.StatusNoContent,
			[]obs.Stage{obs.StageLabel, obs.StagePrune, obs.StageParse, obs.StageMerge, obs.StageValidate, obs.StageWALAppend}},
		{"POST update", http.MethodPost, "/docs/CSlab.xml/update", "Sam", sam, "replace-text //flname Ada Hopper", http.StatusNoContent,
			[]obs.Stage{obs.StageLabel, obs.StagePrune, obs.StageUpdateApply, obs.StageParse, obs.StageValidate, obs.StageWALAppend}},
		// The update retired the cached views: the cycle runs whole.
		{"cold GET", http.MethodGet, "/docs/CSlab.xml", "Tom", tom, "", http.StatusOK,
			[]obs.Stage{obs.StageLabel, obs.StagePrune, obs.StageUnparse}},
	}
	for _, tc := range cases {
		before := stageCounts()
		audit.Reset()
		rec := do(t, h, tc.method, tc.path, tc.user, tc.ip, tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s: HTTP %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		id := rec.Header().Get("X-Request-ID")
		after := stageCounts()
		slow := slowEntryFor(t, site, id)
		card := slow.Cost

		ran := map[obs.Stage]bool{}
		for _, st := range tc.stages {
			ran[st] = true
		}
		var sum int64
		for i, ns := range card.Stages {
			st := obs.Stage(i)
			if ran[st] != (ns > 0) {
				t.Errorf("%s: card stage %s = %d ns, want ran=%v", tc.name, st, ns, ran[st])
			}
			want := before[st]
			if ran[st] {
				want++
			}
			if after[st] != want {
				t.Errorf("%s: stage %s histogram count %d -> %d, want %d", tc.name, st, before[st], after[st], want)
			}
			sum += ns
		}
		if sum > slow.DurationNs {
			t.Errorf("%s: stage times sum to %d ns, more than the request's %d ns", tc.name, sum, slow.DurationNs)
		}

		line := strings.TrimSpace(audit.String())
		var ar AuditRecord
		if err := json.Unmarshal([]byte(line), &ar); err != nil {
			t.Fatalf("%s: audit line %q: %v", tc.name, line, err)
		}
		if ar.RequestID != id || ar.Cost == nil || *ar.Cost != card {
			t.Errorf("%s: audit record %+v (cost %+v) differs from the slow-board card %+v", tc.name, ar, ar.Cost, card)
		}
		// On a cached view the query's evaluation is the only one; a
		// miss also evaluates the authorizations' paths.
		if strings.HasPrefix(tc.path, "/query/") && len(tc.stages) == 0 && card.ArenaXPathEvals != 1 {
			t.Errorf("%s: card counts %d XPath evaluations, want 1", tc.name, card.ArenaXPathEvals)
		}
		// Only the request that renders a view's text counts its bytes.
		wantBytes := 0
		if ran[obs.StageUnparse] {
			wantBytes = rec.Body.Len()
		}
		if card.BytesSerialized != int64(wantBytes) {
			t.Errorf("%s: card serialized %d bytes, want %d", tc.name, card.BytesSerialized, wantBytes)
		}
		if len(tc.stages) == 0 && !strings.Contains(line, `"stages_ns":{}`) {
			t.Errorf("%s: a request that ran no stage must have an empty stages_ns: %s", tc.name, line)
		}

		var snap *trace.Snapshot
		for _, tr := range site.traces.Recent() {
			if tr.ID == id {
				s := tr.Snapshot(false)
				snap = &s
			}
		}
		if snap == nil || snap.Cost == nil || *snap.Cost != card {
			t.Errorf("%s: trace record %+v differs from the slow-board card %+v", tc.name, snap, card)
		}
	}
}
