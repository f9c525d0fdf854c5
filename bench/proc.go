package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles the real cmd/ctflsrv binary from the repository at
// repo into out.
func buildServer(repo, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/ctflsrv")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/ctflsrv: %w", err)
	}
	return nil
}

// server is one running ctflsrv child process: durable WAL with an fsync
// per append (the production default) on its own data dir.
type server struct {
	cmd    *exec.Cmd
	addr   string
	dir    string
	logs   *tailWriter
	exited chan struct{} // closed once the process has been waited for
}

// serverFlags is the ctflsrv configuration every workload runs, and the
// configuration the in-process references mirror. Round truncation is off
// (-round-epsilon -1): whether a round truncates hinges on exact ties of
// eval-set accuracies, which would make a round's cost depend on the seed
// more than on the code.
var serverFlags = []string{"-round-perms", strconv.Itoa(roundPerms), "-round-epsilon", "-1"}

// startServer execs ctflsrv on dir, listening on addr (a free loopback port
// when empty). It does not wait for readiness.
func startServer(bin, dir, addr string) (*server, error) {
	if addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = ln.Addr().String()
		ln.Close()
	}
	s := &server{addr: addr, dir: dir, logs: newTailWriter(), exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr, "-data-dir", dir}, serverFlags...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.logs, s.logs
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ctflsrv: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // a killed server exits non-zero by design
		close(s.exited)
	}()
	return s, nil
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// waitHealthy waits for the server's "listening" log line, which it prints
// once its state is replayed and its listener bound, then confirms that
// /healthz answers 200. Waiting on the line instead of polling keeps
// start-up times free of a polling interval.
func (s *server) waitHealthy(hc *http.Client, timeout time.Duration) error {
	select {
	case <-s.logs.ready:
	case <-s.exited:
		return fmt.Errorf("ctflsrv exited during start-up: %s", s.logs.String())
	case <-time.After(timeout):
		return fmt.Errorf("ctflsrv not listening after %v: %s", timeout, s.logs.String())
	}
	resp, err := hc.Get(s.url("/healthz"))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	return nil
}

// kill sends SIGKILL and waits for the process to end. Safe to call twice.
func (s *server) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only when the process already ended
	<-s.exited
}

// procStatus reads one "Key:  value kB" field of /proc/<pid>/status.
func (s *server) procStatusKB(key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc status has no %s", key)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds is the process's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// scrape fetches /metrics as a series → value map.
func (s *server) scrape(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition into series → value. The
// series key is the name with its label set, exactly as exposed.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one series; ok is false when the series is
// missing from the after scrape (a family this build does not export).
func delta(before, after map[string]float64, series string) (float64, bool) {
	a, ok := after[series]
	return a - before[series], ok
}

// tailWriter keeps the last tailBytes written to it: the server's log tail
// for error messages, without buffering a whole run's access log. It closes
// ready when the server logs that it is listening.
type tailWriter struct {
	mu        sync.Mutex
	buf       []byte
	ready     chan struct{}
	listening bool
}

const tailBytes = 4096

func newTailWriter() *tailWriter { return &tailWriter{ready: make(chan struct{})} }

func (w *tailWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.listening && bytes.Contains(w.buf, []byte("ctflsrv listening on ")) {
		w.listening = true
		close(w.ready)
	}
	if over := len(w.buf) - tailBytes; over > 0 {
		w.buf = append(w.buf[:0], w.buf[over:]...)
	}
	return len(p), nil
}

func (w *tailWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf)
}
