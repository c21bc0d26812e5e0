package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server-side child: a real kbserver or kbrouter binary on an
// ephemeral loopback port, its output in the log directory.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	// exited closes once the child has been waited for.
	exited chan struct{}
}

// children tracks every live child so that no exit path — return, fatal
// error, SIGINT — leaves a server behind.
var children struct {
	sync.Mutex
	live map[*proc]bool
}

func init() { children.live = map[*proc]bool{} }

// killOnSignal reaps every child and exits when the harness is interrupted.
func killOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if run := ledgerRun.Load(); run != nil {
			_ = run.Signal(sig) // it stops its own servers; gone already is fine
		}
		logf("%s: stopping %d server process(es)", sig, stopAll())
		os.Exit(130)
	}()
}

// stopAll kills and waits for every child still alive.
func stopAll() int {
	children.Lock()
	procs := make([]*proc, 0, len(children.live))
	for p := range children.live {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.stop()
	}
	return len(procs)
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on a benchmark host is
// racing for ports, and a lost race fails the health poll loudly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin with args plus -addr on a fresh port and polls /healthz
// until it answers.
func spawn(name, bin, logDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := startChild(cmd); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, log: logFile, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child's exit status is not news
		close(p.exited)
	}()
	children.Lock()
	children.live[p] = true
	children.Unlock()
	if err := p.waitHealthy(20 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) waitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, p.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s on %s did not become healthy within %s (see %s)", p.name, p.addr, limit, p.log.Name())
}

// stop kills the child and waits until it has ended. Idempotent.
func (p *proc) stop() {
	children.Lock()
	alive := children.live[p]
	delete(children.live, p)
	children.Unlock()
	if !alive {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
	p.log.Close()
}

// cpu is the child's CPU time so far, summed over its threads from
// /proc/<pid>/task/*/schedstat, whose first field is nanoseconds on a CPU.
// (The user+system fields of /proc/<pid>/stat count 10-ms ticks, too coarse
// for half-second windows of a few hundred cache hits.)
func (p *proc) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for %s (pid %d): is it running, on Linux?", p.name, p.cmd.Process.Pid)
	}
	var total int64
	for _, task := range tasks {
		data, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		var ns int64
		if _, err := fmt.Sscan(string(data), &ns); err != nil {
			return 0, fmt.Errorf("unexpected %s: %q", task, data)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// hostTicks reads the first line of /proc/stat: ticks the hypervisor gave to
// someone else while this VM wanted a CPU ("steal"), and all ticks. Their
// ratio over a run's blocks says whether the run had the machine it asked for.
func hostTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the leading "cpu"
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSS is the child's high-water resident set (VmHWM) in MB.
func (p *proc) peakRSS() (float64, error) {
	return vmHWM(strconv.Itoa(p.cmd.Process.Pid))
}

func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// scrape sums every series of each named counter on the child's /metrics.
func (p *proc) scrape(names ...string) (map[string]float64, error) {
	resp, err := http.Get("http://" + p.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		for _, want := range names {
			if name == want {
				if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
					out[name] += v
				}
			}
		}
	}
	return out, sc.Err()
}

// fleet is the server side of one serving workload: one kbserver, or a
// kbrouter in front of two.
type fleet struct {
	replicas []*proc
	router   *proc
}

// front is the address clients talk to.
func (f *fleet) front() string {
	if f.router != nil {
		return f.router.addr
	}
	return f.replicas[0].addr
}

func (f *fleet) all() []*proc {
	if f.router != nil {
		return append([]*proc{f.router}, f.replicas...)
	}
	return f.replicas
}

func (f *fleet) stop() {
	for _, p := range f.all() {
		p.stop()
	}
}

// boot starts the fleet at default flags: fresh processes, flat bundle,
// tracing at its shipped 1-in-128 default.
func boot(ws *workspace, bundle string, routed bool, logDir string) (*fleet, error) {
	f := &fleet{}
	n := 1
	if routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		p, err := spawn(fmt.Sprintf("kbserver-%d", i), ws.path("bin/kbserver"), logDir, "-load", bundle)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
	}
	if routed {
		args := make([]string, 0, 2*n)
		for _, r := range f.replicas {
			args = append(args, "-replica", r.addr)
		}
		p, err := spawn("kbrouter", ws.path("bin/kbrouter"), logDir, args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = p
	}
	return f, nil
}
