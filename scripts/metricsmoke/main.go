// Command metricsmoke is the check.sh observability smoke test: it boots a
// ctflsrv binary on an ephemeral port, verifies every required metric
// family is exposed in both forms of the telemetry registry (GET /metrics
// and the telemetry block of GET /v1/debug/bundle), checks /v1/events
// records a request under the X-Request-Id it was sent with, and shuts the
// server down gracefully via SIGTERM.
//
// Usage: metricsmoke -bin ./path/to/ctflsrv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// requiredFamilies is the metric catalog contract: one representative name
// per instrumented subsystem (HTTP routes, job engine, durable store,
// tracer, streaming valuation, and the resilience layer).
var requiredFamilies = []string{
	"ctfl_http_requests_total",
	"ctfl_http_request_seconds",
	"ctfl_http_in_flight",
	"ctfl_jobs_submitted_total",
	"ctfl_jobs_queue_depth",
	"ctfl_jobs_wait_seconds",
	"ctfl_jobs_quarantined_total",
	"ctfl_store_append_seconds",
	"ctfl_store_wal_bytes",
	"ctfl_tracer_queries_total",
	"ctfl_tracer_trace_seconds",
	"ctfl_server_degraded",
	"ctfl_rounds_ingested_total",
	"ctfl_rounds_skipped_total",
	"ctfl_rounds_gated_total",
	"ctfl_rounds_score_staleness_seconds",
	"ctfl_rounds_score_drift",
	"ctfl_rounds_sampling_variance",
	"ctfl_slo_burn_rate",
	"ctfl_slo_breach",
	"ctfl_flight_events_total",
	"ctfl_flight_pinned_total",
	"ctfl_process_goroutines",
	"ctfl_process_uptime_seconds",
	"ctfl_wal_attempts_total",
	"ctfl_http_errors_total",
}

func main() {
	bin := flag.String("bin", "", "path to the ctflsrv binary")
	timeout := flag.Duration("timeout", 20*time.Second, "overall smoke deadline")
	flag.Parse()
	if *bin == "" {
		fatalf("metricsmoke: -bin is required")
	}

	cmd := exec.Command(*bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fatalf("metricsmoke: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fatalf("metricsmoke: starting %s: %v", *bin, err)
	}
	defer cmd.Process.Kill() // no-op after a clean wait

	addr, logTail, err := awaitListening(stderr, *timeout)
	if err != nil {
		fatalf("metricsmoke: %v\n--- server log ---\n%s", err, logTail)
	}
	fmt.Printf("metricsmoke: server up at %s\n", addr)
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	base := "http://" + addr
	const reqID = "metricsmoke-healthz"
	body := get(base+"/healthz", reqID)
	if !strings.Contains(body, `"ok":true`) {
		fatalf("metricsmoke: /healthz not ok: %s", body)
	}

	metrics := get(base+"/metrics", "")
	var missing []string
	for _, name := range requiredFamilies {
		if !strings.Contains(metrics, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fatalf("metricsmoke: /metrics missing families: %s", strings.Join(missing, ", "))
	}
	fmt.Printf("metricsmoke: /metrics exposes all %d required families\n", len(requiredFamilies))

	events := get(base+"/v1/events", "")
	if !strings.Contains(events, `"route":"/healthz","method":"GET","request_id":"`+reqID+`"`) {
		fatalf("metricsmoke: /v1/events has no /healthz event under request id %s: %s", reqID, events)
	}
	fmt.Println("metricsmoke: /v1/events records requests under their X-Request-Id")

	version := get(base+"/v1/version", "")
	if !strings.Contains(version, `"go_version"`) {
		fatalf("metricsmoke: /v1/version lacks build identity: %s", version)
	}
	var bundle struct {
		SLO       []json.RawMessage `json:"slo"`
		Events    []json.RawMessage `json:"events"`
		Telemetry map[string]any    `json:"telemetry"`
	}
	if err := json.Unmarshal([]byte(get(base+"/v1/debug/bundle", "")), &bundle); err != nil {
		fatalf("metricsmoke: /v1/debug/bundle: %v", err)
	}
	if len(bundle.SLO) == 0 || len(bundle.Events) == 0 {
		fatalf("metricsmoke: /v1/debug/bundle incomplete: %d SLOs, %d events", len(bundle.SLO), len(bundle.Events))
	}
	missing = missing[:0]
	for _, name := range requiredFamilies {
		if !hasFamily(bundle.Telemetry, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fatalf("metricsmoke: /v1/debug/bundle telemetry missing families: %s", strings.Join(missing, ", "))
	}
	fmt.Printf("metricsmoke: /v1/version answers; /v1/debug/bundle carries all %d required families\n", len(requiredFamilies))

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatalf("metricsmoke: signalling server: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatalf("metricsmoke: server exited uncleanly: %v", err)
		}
	case <-time.After(*timeout):
		fatalf("metricsmoke: server did not drain within %s", *timeout)
	}
	fmt.Println("metricsmoke: OK")
}

// hasFamily reports whether a registry snapshot holds the family, as a bare
// series or as any labelled series of it.
func hasFamily(snapshot map[string]any, family string) bool {
	if _, ok := snapshot[family]; ok {
		return true
	}
	for name := range snapshot {
		if strings.HasPrefix(name, family+"{") {
			return true
		}
	}
	return false
}

// awaitListening scans the server's log for the startup line and extracts
// the bound address from its addr= field.
func awaitListening(r io.Reader, timeout time.Duration) (addr, tail string, err error) {
	type result struct{ addr, tail string }
	found := make(chan result, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			if !strings.Contains(line, "ctflsrv listening on") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					found <- result{addr: a, tail: strings.Join(lines, "\n")}
					return
				}
			}
		}
		found <- result{tail: strings.Join(lines, "\n")}
	}()
	select {
	case res := <-found:
		if res.addr == "" {
			return "", res.tail, fmt.Errorf("startup line with addr= never appeared")
		}
		return res.addr, res.tail, nil
	case <-time.After(timeout):
		return "", "", fmt.Errorf("no startup line within %s", timeout)
	}
}

// get fetches url, sending reqID as X-Request-Id when it is not empty.
func get(url, reqID string) string {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		fatalf("metricsmoke: GET %s: %v", url, err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("metricsmoke: GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("metricsmoke: GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("metricsmoke: GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
