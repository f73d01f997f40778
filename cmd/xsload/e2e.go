package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"
)

const (
	setupBoots     = 5 // boots behind setup_s
	recoveries     = 3 // restarts behind recovery_s
	closedWindow   = 500 * time.Millisecond
	closedRequests = 50000
	maxLagUs       = 1000 // pacers waking later than this at p99 make a run's latencies invalid
)

// phaseLen is a share of the fixed phase, capped.
func phaseLen(seconds, share, max float64) time.Duration {
	return time.Duration(math.Min(seconds*share, max) * float64(time.Second))
}

// runEndToEnd measures one workload against the real daemon, in phases:
// set-up (setupBoots boots on fresh data directories), open-loop
// warm-up, the open-loop fixed-rate phase, crash recovery (SIGKILL and
// restart on the same data directory, recoveries times), and a
// closed-loop saturation phase on the recovered daemon. The crash comes
// before the closed loop so the log every restart replays holds exactly
// the updates the open-loop schedule sent.
//
// The gated metrics are medians over parts of a run — boots, restarts,
// one-second windows of the fixed phase and half-second windows of the
// closed loop — so that a burst of noise from the machine moves a few
// parts, not the result.
func runEndToEnd(cfg *config, w *workload, s *site, siteDir, dir string) (*outcome, error) {
	out := &outcome{workload: w.name}
	fixed := time.Duration(cfg.seconds * float64(time.Second))
	windows := max(1, int(fixed/time.Second))
	win := fixed / time.Duration(windows)
	perWin := int(win.Seconds() * w.rate)
	warm := phaseLen(cfg.seconds, 0.25, 3)
	nWarm := int(warm.Seconds() * w.rate)
	reqs := genRequests(newRand(cfg.seed, 2), s, w, nWarm+windows*perWin)
	wire := render(s, reqs)
	creqs := genRequests(newRand(cfg.seed, 3), s, w, closedRequests)
	cwire := render(s, creqs)
	sampleN := 0
	if w.readOnly() {
		sampleN = sampleEvery
	}

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var boots []float64
	var dataDir string
	for b := 0; b < setupBoots; b++ {
		dataDir = filepath.Join(dir, fmt.Sprintf("data%d", b))
		bd, took, err := boot(cfg.xmlsecd, siteDir, dataDir)
		if err != nil {
			return nil, err
		}
		boots = append(boots, took.Seconds())
		if b < setupBoots-1 {
			bd.kill()
		} else {
			d = bd
		}
	}
	out.add("setup_s", median(boots), "s", fmt.Sprintf("median of %d boots", setupBoots))

	start := time.Now().Add(20 * time.Millisecond)
	wp := openLoop(d.addr, wire[:nWarm], reqs[:nWarm], start, w.rate, cfg.conns, sampleN)
	fixedStart := start.Add(warm)
	fixedReqs := reqs[nWarm:]
	var ps procSamples
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		ps = sampleProc(d.pid(), fixedStart, win, windows)
	}()
	fp := openLoop(d.addr, wire[nWarm:], fixedReqs, fixedStart, w.rate, cfg.conns, sampleN)
	<-sampled
	hwm, err := procField(d.pid(), "status", "VmHWM")
	if err := errors.Join(ps.err, err); err != nil {
		return nil, fmt.Errorf("reading /proc of xmlsecd: %w", err)
	}
	var p50s []float64
	for k := 0; k < windows; k++ {
		lat := fp.latencies(fixedReqs, k*perWin, (k+1)*perWin, opRead, opQuery, opUpdate)
		if v, ok := percentile(lat, 0.5); ok {
			p50s = append(p50s, v)
		}
	}
	if len(p50s) == 0 {
		return nil, fmt.Errorf("no window of the fixed phase has enough successful requests for a median")
	}
	out.add("p50_ms", median(p50s), "ms", fmt.Sprintf("median of %d per-window medians, n=%d", len(p50s), len(fixedReqs)))
	for o := op(0); o < numOps; o++ {
		latencyMetrics(out, opNames[o]+"_", fp.latencies(fixedReqs, 0, len(fixedReqs), o))
	}
	out.add("rss_mb", median(ps.rssKB)/1024, "MB", "median VmRSS over the fixed phase")
	out.add("rss_hwm_mb", float64(hwm)/1024, "MB", "VmHWM after the fixed phase")
	if n := len(fp.latencies(fixedReqs, 0, len(fixedReqs), opUpdate)); n > 0 {
		out.add("disk_bytes_per_update", float64(ps.written[windows]-ps.written[0])/float64(n), "B", fmt.Sprintf("n=%d", n))
	}
	if lag, ok := percentile(fp.lag, 0.99); ok {
		note := fmt.Sprintf("n=%d", len(fp.lag))
		if lag > maxLagUs {
			// The daemon's answers are still checked and correct; only the
			// latency tail measured the generator as much as the daemon.
			note += fmt.Sprintf(", INVALID: over %d us, the latency tail includes generator lag", maxLagUs)
		}
		out.add("gen.lag_p99_us", lag, "us", note)
	}

	// Crash and recover: an editor's view of every document must survive
	// byte for byte.
	editor := s.editors[0]
	check := &phase{}
	before := editorViews(d.addr, s, editor, check)
	var recs []float64
	for r := 0; r < recoveries; r++ {
		d.kill()
		d = nil
		rd, took, err := boot(cfg.xmlsecd, siteDir, dataDir)
		if err != nil {
			return nil, fmt.Errorf("recovering: %w", err)
		}
		d = rd
		recs = append(recs, took.Seconds())
	}
	out.add("recovery_s", median(recs), "s",
		fmt.Sprintf("median of %d restarts, %d updates replayed", recoveries, countUpdates(reqs)))
	after := editorViews(d.addr, s, editor, check)
	if !slices.EqualFunc(before, after, func(a, b []byte) bool { return string(a) == string(b) }) {
		out.problems = append(out.problems, "an editor's views differ after crash recovery")
	}

	// Saturation. CPU per request is measured here, where the daemon
	// never idles: at a fixed low rate the Go scheduler's idle spinning
	// and wake-ups cost about as much CPU as the requests themselves,
	// and vary from run to run.
	closed := phaseLen(cfg.seconds, 0.5, 10)
	cwin, cwins := closedWindow, int(closed/closedWindow)
	if cwins == 0 {
		cwin, cwins = closed, 1
	}
	from := time.Now().Add(closed / 4)
	var cs procSamples
	sampled = make(chan struct{})
	go func() {
		defer close(sampled)
		cs = sampleProc(d.pid(), from, cwin, cwins)
	}()
	rates, cp := closedLoop(d.addr, cwire, creqs, cfg.conns, from, cwin, cwins)
	<-sampled
	if cs.err != nil {
		return nil, fmt.Errorf("reading /proc of xmlsecd: %w", cs.err)
	}
	var cpus []float64
	for k, r := range rates {
		if r > 0 {
			cpus = append(cpus, float64(cs.cpu[k+1]-cs.cpu[k])/float64(time.Microsecond)/(r*cwin.Seconds()))
		}
	}
	out.add("peak_rps", median(rates), "req/s",
		fmt.Sprintf("median of %d windows, closed loop, %d connections", cwins, cfg.conns))
	out.add("cpu_us_per_req", median(cpus), "us", fmt.Sprintf("daemon CPU at saturation, median of %d windows", cwins))
	d.kill()
	d = nil

	for _, p := range []*phase{wp, fp, check, cp} {
		out.attempted += p.attempted
		out.failed += p.failed
		if p.firstFailure != "" && out.failed == p.failed {
			out.problems = append(out.problems, "first failure: "+p.firstFailure)
		}
	}
	out.add("error_frac", float64(out.failed)/float64(out.attempted), "ratio", fmt.Sprintf("of %d attempted", out.attempted))
	if out.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d requests failed", out.failed, out.attempted))
	}
	if sampleN > 0 {
		o, err := newOracle(siteDir)
		if err != nil {
			return nil, err
		}
		n, err := o.check(s, append(wp.samples, fp.samples...))
		if err != nil {
			out.problems = append(out.problems, err.Error())
		}
		out.add("oracle.checked", float64(n), "count", "")
	}
	return out, nil
}

// procSamples are the daemon's CPU time, resident size and bytes
// written to storage, read at each window boundary of a phase.
type procSamples struct {
	cpu     []time.Duration
	rssKB   []float64
	written []int64
	err     error
}

func sampleProc(pid int, start time.Time, win time.Duration, windows int) procSamples {
	var ps procSamples
	for k := 0; k <= windows; k++ {
		time.Sleep(time.Until(start.Add(win * time.Duration(k))))
		cpu, err1 := procCPU(pid)
		rss, err2 := procField(pid, "status", "VmRSS")
		written, err3 := procField(pid, "io", "write_bytes")
		if ps.err = errors.Join(err1, err2, err3); ps.err != nil {
			return ps
		}
		ps.cpu = append(ps.cpu, cpu)
		ps.rssKB = append(ps.rssKB, float64(rss))
		ps.written = append(ps.written, written)
	}
	return ps
}

// latencyMetrics reports the median of sorted latencies and every
// higher percentile that has at least minBeyond samples beyond it, each
// with its sample count.
func latencyMetrics(out *outcome, prefix string, lat []float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}} {
		if v, ok := percentile(lat, q.q); ok {
			out.add(prefix+q.name+"_ms", v, "ms", fmt.Sprintf("n=%d", len(lat)))
		}
	}
}

func countUpdates(reqs []request) int {
	n := 0
	for i := range reqs {
		if reqs[i].op == opUpdate {
			n++
		}
	}
	return n
}

// editorViews fetches an editor's view of every document.
func editorViews(addr string, s *site, editor int, p *phase) [][]byte {
	cn := &conn{addr: addr}
	defer cn.close()
	var views [][]byte
	for d := range s.docs {
		r := &request{op: opRead, user: editor, doc: d}
		status, body, err := cn.do(s.httpRequest(r), true)
		p.record(r, status, err)
		views = append(views, body)
	}
	return views
}
