package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// viewCacheSize is the daemon's -view-cache, and the traced run's.
const viewCacheSize = 1024

// daemon is one running xmlsecd, started with the same flags for every
// workload: the view cache on, a fresh data directory, fsync on every
// commit, JSON logs. The slow log stays at its default; tracing, audit
// and pprof stay off.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// live holds every daemon not yet reaped, so that a fatal error or a
// signal can stop them all.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// boot starts xmlsecd and returns once /readyz answers 200, with the
// time from spawn to that answer. The listen address comes from the
// JSON "serving" log line.
func boot(bin, siteDir, dataDir string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-site", siteDir, "-addr", "127.0.0.1:0",
		"-view-cache", strconv.Itoa(viewCacheSize), "-data-dir", dataDir,
		"-fsync", "always", "-log-format", "json")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting xmlsecd: %w", err)
	}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	go d.drain(stderr, addrc)

	select {
	case d.addr = <-addrc:
	case <-d.exited:
		return nil, 0, fmt.Errorf("xmlsecd exited before serving: %s", d.lastLines())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("xmlsecd did not log \"serving\" within 60s: %s", d.lastLines())
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	for {
		resp, err := client.Get("http://" + d.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("xmlsecd exited before ready: %s", d.lastLines())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("xmlsecd not ready within 60s: %s", d.lastLines())
		}
	}
}

// drain reads the daemon's log to its end, so a full pipe never blocks
// the daemon, hands the listen address to addrc, and then reaps the
// process.
func (d *daemon) drain(r io.Reader, addrc chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var rec struct{ Msg, Addr string }
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "serving" {
			select {
			case addrc <- rec.Addr:
			default:
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 8 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
	_ = d.cmd.Wait() // the exit status of a killed daemon says nothing new
	live.Lock()
	delete(live.set, d)
	live.Unlock()
	close(d.exited)
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon with SIGKILL — a crash, as far as the daemon
// can tell — and waits until it has been reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process is already gone
	<-d.exited
}

func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// procCPU returns the CPU time all of the process's threads have used,
// to the nanosecond (the tick counts of /proc/<pid>/stat are 10ms).
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread has exited
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// procField returns a numeric "name: value" field of a /proc file.
func procField(pid int, file, name string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s has no %s", pid, file, name)
}
