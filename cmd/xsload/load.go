package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon. Requests
// are written as prepared bytes and responses parsed with
// http.ReadResponse, so the client adds no goroutine hand-offs of its
// own to the measured latency.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

// do sends one request and reads the whole response, keeping the body
// only when keep is set.
func (c *conn) do(req []byte, keep bool) (status int, body []byte, err error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if _, err := c.nc.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, body, err
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// sample is one response kept for the oracle comparison.
type sample struct {
	req  *request
	body []byte
}

// phase collects what one load phase observed.
type phase struct {
	lat               []float64 // ms from each request's scheduled send time, by request; NaN if it failed
	lag               []float64 // µs the pacer woke late, measured only after it slept
	attempted, failed int
	firstFailure      string
	samples           []sample
}

func (p *phase) merge(q *phase) {
	p.lag = append(p.lag, q.lag...)
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstFailure == "" {
		p.firstFailure = q.firstFailure
	}
	p.samples = append(p.samples, q.samples...)
}

func (p *phase) record(r *request, status int, err error) bool {
	p.attempted++
	if err == nil && status == wantStatus[r.op] {
		return true
	}
	p.failed++
	if p.firstFailure == "" {
		if err != nil {
			p.firstFailure = fmt.Sprintf("%s %s: %v", opNames[r.op], r.arg, err)
		} else {
			p.firstFailure = fmt.Sprintf("%s %s: status %d, want %d", opNames[r.op], r.arg, status, wantStatus[r.op])
		}
	}
	return false
}

// latencies returns the sorted latencies of the successful requests
// among reqs[from:to] whose operation is in ops.
func (p *phase) latencies(reqs []request, from, to int, ops ...op) []float64 {
	var out []float64
	for i := from; i < to; i++ {
		if !math.IsNaN(p.lat[i]) && slices.Contains(ops, reqs[i].op) {
			out = append(out, p.lat[i])
		}
	}
	sort.Float64s(out)
	return out
}

// openLoop sends reqs on a constant-rate schedule — request i is due at
// start + i/rate — over conns connections, and times every request from
// when it was due, so a stall that delays later sends is counted in
// their latency (no coordinated omission). Each connection has its own
// pacing loop owning every conns-th slot, on a locked OS thread that
// sleeps with nanosleep: the runtime's timers wake sub-millisecond
// sleeps up to a millisecond late, which would add that much to every
// sample. Every sampleEvery-th response body is kept for the oracle
// (0 keeps none).
func openLoop(addr string, wire [][]byte, reqs []request, start time.Time, rate float64, conns, sampleEvery int) *phase {
	out := &phase{lat: make([]float64, len(reqs))}
	parts := make([]*phase, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		p := &phase{}
		parts[c] = p
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cn := &conn{addr: addr}
			defer cn.close()
			for i := first; i < len(reqs); i += conns {
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				if wait := time.Until(due); wait > 0 {
					nanosleep(wait)
					p.lag = append(p.lag, float64(time.Since(due))/float64(time.Microsecond))
				}
				r := &reqs[i]
				keep := sampleEvery > 0 && i%sampleEvery == 0
				status, body, err := cn.do(wire[i], keep)
				// Each connection writes only its own slots of out.lat.
				out.lat[i] = float64(time.Since(due)) / float64(time.Millisecond)
				if !p.record(r, status, err) {
					out.lat[i] = math.NaN()
				} else if keep {
					p.samples = append(p.samples, sample{req: r, body: body})
				}
			}
		}(c)
	}
	wg.Wait()
	for _, p := range parts {
		out.merge(p)
	}
	sort.Float64s(out.lag)
	return out
}

func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// closedLoop drives conns connections that each send their next request
// as soon as the previous one completes, until windows windows of win
// have passed after from, and returns the requests completed per second
// in each window. Requests are taken in order from reqs, wrapping
// around.
func closedLoop(addr string, wire [][]byte, reqs []request, conns int, from time.Time, win time.Duration, windows int) ([]float64, *phase) {
	var next atomic.Int64
	to := from.Add(win * time.Duration(windows))
	parts := make([]*phase, conns)
	counts := make([][]int, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		p := &phase{}
		parts[c] = p
		n := make([]int, windows)
		counts[c] = n
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := &conn{addr: addr}
			defer cn.close()
			for time.Now().Before(to) {
				i := int(next.Add(1)-1) % len(reqs)
				status, _, err := cn.do(wire[i], false)
				done := time.Now()
				if p.record(&reqs[i], status, err) && done.After(from) && done.Before(to) {
					n[int(done.Sub(from)/win)]++
				}
			}
		}()
	}
	wg.Wait()
	out := &phase{}
	rates := make([]float64, windows)
	for c, p := range parts {
		out.merge(p)
		for k, n := range counts[c] {
			rates[k] += float64(n) / win.Seconds()
		}
	}
	return rates, out
}

func render(s *site, reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		out[i] = s.httpRequest(&reqs[i])
	}
	return out
}
