package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"xmlsec/internal/labexample"
	"xmlsec/internal/obs"
)

// TestMetricsExposition drives real traffic through the handler and
// checks the Prometheus exposition: stage-latency histograms for every
// cycle stage, per-route request counters, and the store gauges.
func TestMetricsExposition(t *testing.T) {
	site := labSite(t).EnableViewCache(16)
	var audit strings.Builder
	site.SetAuditLog(&audit)
	h := site.Handler()

	for i := 0; i < 3; i++ {
		if code, _ := get(t, h, "/docs/CSlab.xml", "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK {
			t.Fatalf("doc read: HTTP %d", code)
		}
	}
	if code, _ := get(t, h, "/query/CSlab.xml?q=//title", "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK {
		t.Fatal("query failed")
	}
	if code, _ := get(t, h, "/docs/ghost.xml", "Tom", "pw-tom", "130.100.50.8"); code != http.StatusNotFound {
		t.Fatal("expected 404")
	}

	code, body := get(t, h, "/metrics", "", "", "1.1.1.1")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"# TYPE xmlsec_stage_duration_seconds histogram",
		// All cycle stages are present even when a mode (here
		// parse-per-request) never ran: the children are materialized
		// at registration so scrapers see a stable series set.
		`xmlsec_stage_duration_seconds_bucket{stage="parse"`,
		`xmlsec_stage_duration_seconds_bucket{stage="label"`,
		`xmlsec_stage_duration_seconds_bucket{stage="prune"`,
		`xmlsec_stage_duration_seconds_bucket{stage="unparse"`,
		`xmlsec_stage_duration_seconds_bucket{stage="validate"`,
		`xmlsec_stage_duration_seconds_bucket{stage="merge"`,
		`xmlsec_stage_duration_seconds_bucket{stage="update.apply"`,
		`xmlsec_stage_duration_seconds_bucket{stage="wal.append"`,
		"# TYPE xmlsec_http_requests_total counter",
		`xmlsec_http_requests_total{route="/docs/",status="200"} 3`,
		`xmlsec_http_requests_total{route="/docs/",status="404"} 1`,
		`xmlsec_http_requests_total{route="/query/",status="200"} 1`,
		"# TYPE xmlsec_http_request_duration_seconds histogram",
		"xmlsec_view_cache_hits_total",
		"xmlsec_view_cache_misses_total",
		"xmlsec_audit_records_total",
		"xmlsec_authz_generation",
		"xmlsec_docstore_generation",
		`xmlsec_process_total{outcome="ok"}`,
		`xmlsec_process_total{outcome="not-found"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The stage histograms are fed from the requests' cost cards: only
	// the first read runs the cycle (the repeats and the query hit the
	// view cache), and parse-per-request is off.
	snap := site.Metrics().Snapshot()
	stage := snap.Metric("xmlsec_stage_duration_seconds")
	if stage == nil {
		t.Fatal("stage metric missing from snapshot")
	}
	for st, want := range map[string]uint64{"label": 1, "prune": 1, "unparse": 1, "validate": 1, "parse": 0} {
		series := stage.Find("stage", st)
		if series == nil || series.Histogram == nil || series.Histogram.Count != want {
			t.Errorf("stage %q observations = %+v, want %d", st, series, want)
		}
	}
	// Cached repeats surface as hits.
	if s := snap.Metric("xmlsec_view_cache_hits_total"); s == nil || s.Series[0].Value == 0 {
		t.Error("view-cache hits not exported")
	}
	if s := snap.Metric("xmlsec_audit_records_total"); s == nil || s.Series[0].Value == 0 {
		t.Error("audit record count not exported")
	}
}

// TestStatzJSON checks that /statz serves the registry as valid JSON.
func TestStatzJSON(t *testing.T) {
	site := labSite(t)
	h := site.Handler()
	if code, _ := get(t, h, "/docs/CSlab.xml", "Tom", "pw-tom", "130.100.50.8"); code != http.StatusOK {
		t.Fatal("doc read failed")
	}
	code, body := get(t, h, "/statz", "", "", "1.1.1.1")
	if code != http.StatusOK {
		t.Fatalf("/statz: HTTP %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/statz is not valid JSON: %v\n%s", err, body)
	}
	if snap.Metric("xmlsec_stage_duration_seconds") == nil {
		t.Error("/statz missing the stage histogram")
	}
	if snap.Metric("xmlsec_http_requests_total") == nil {
		t.Error("/statz missing the request counter")
	}
}

// TestProcessOutcomeCounter checks the ok/not-found/error split.
func TestProcessOutcomeCounter(t *testing.T) {
	site := labSite(t)
	if _, err := site.Process(labexample.Tom, labexample.DocURI); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Process(labexample.Tom, "ghost.xml"); err == nil {
		t.Fatal("expected not-found")
	}
	snap := site.Metrics().Snapshot()
	m := snap.Metric("xmlsec_process_total")
	if s := m.Find("outcome", "ok"); s == nil || s.Value != 1 {
		t.Errorf("ok outcome = %+v, want 1", s)
	}
	if s := m.Find("outcome", "not-found"); s == nil || s.Value != 1 {
		t.Errorf("not-found outcome = %+v, want 1", s)
	}
}
