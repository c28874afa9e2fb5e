package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"github.com/olive-vne/olive/internal/serve"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// testDaemon spins an in-process 2-shard vnesimd-equivalent server.
func testDaemon(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	s, err := serve.New(g, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts
}

func TestExactQuantiles(t *testing.T) {
	var lats []time.Duration
	for v := 100; v >= 1; v-- { // descending: quantiles must sort
		lats = append(lats, time.Duration(v)*time.Microsecond)
	}
	q := exactQuantiles(lats)
	if q.P50 != 50*time.Microsecond || q.P90 != 90*time.Microsecond ||
		q.P99 != 99*time.Microsecond || q.P999 != 100*time.Microsecond {
		t.Fatalf("quantiles = %+v, want 50/90/99/100µs", q)
	}
	if q := exactQuantiles(nil); q.P999 != 0 {
		t.Fatalf("empty quantiles = %+v", q)
	}
}

// TestLoadRunSummary drives a short load run against a 2-shard daemon
// and checks the machine-readable summary: every request accounted for,
// a plausible acceptance rate, monotone quantiles.
func TestLoadRunSummary(t *testing.T) {
	ts := testDaemon(t, serve.Options{Shards: 2, Deterministic: true})
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-n", "120", "-rps", "2000", "-workers", "8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	line := out.String()
	re := regexp.MustCompile(`vneload-summary target_rps=2000 achieved_rps=[\d.]+ sent=120 accepted=(\d+) rejected=(\d+) throttled=(\d+) errors=0 acceptance=[\d.]+ p50_us=(\d+) p90_us=(\d+) p99_us=(\d+) p999_us=(\d+) duration_s=[\d.]+`)
	m := re.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("summary line did not match:\n%s", line)
	}
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	accepted, rejected, throttled := atoi(m[1]), atoi(m[2]), atoi(m[3])
	if accepted+rejected+throttled != 120 {
		t.Fatalf("accounting: %d+%d+%d ≠ 120", accepted, rejected, throttled)
	}
	if accepted == 0 {
		t.Fatal("no request accepted on an empty substrate")
	}
	p50, p90, p99, p999 := atoi(m[4]), atoi(m[5]), atoi(m[6]), atoi(m[7])
	if p50 > p90 || p90 > p99 || p99 > p999 {
		t.Fatalf("quantiles not monotone: %d/%d/%d/%d", p50, p90, p99, p999)
	}
}

// TestCheckMode scrapes and lints a live daemon's /metrics, requiring
// the families the acceptance criteria name.
func TestCheckMode(t *testing.T) {
	ts := testDaemon(t, serve.Options{Shards: 2, Deterministic: true})
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-check",
		"-require", "vne_decisions_total,vne_shed_total,vne_shard_queue_depth,vne_lp_pivots_total,vne_request_duration_seconds",
	}, &out)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	var n int
	if _, err := fmt.Sscanf(out.String(), "vneload-check families=%d ok", &n); err != nil || n < 12 {
		t.Fatalf("check output %q, want ≥ 12 families", out.String())
	}

	// A missing family must fail the check.
	if err := run([]string{"-addr", ts.URL, "-check", "-require", "vne_not_a_family"}, &out); err == nil {
		t.Fatal("check passed with a nonexistent required family")
	}
}

// TestThrottledLoad: against a tightly rate-limited daemon, vneload
// observes 429s as throttled — and the daemon's own metrics attribute
// them to the limiter, not to queue overflow.
func TestThrottledLoad(t *testing.T) {
	ts := testDaemon(t, serve.Options{
		Shards:        2,
		Deterministic: true,
		Limits:        serve.Limits{RateLimit: serve.RateLimit{RPS: 50, Burst: 5}},
	})
	var out bytes.Buffer
	if err := run([]string{
		"-addr", ts.URL, "-n", "100", "-rps", "5000", "-workers", "8",
	}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	re := regexp.MustCompile(`throttled=(\d+)`)
	m := re.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no throttled field:\n%s", out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("offered 5000 rps against a 50 rps limiter, throttled=0:\n%s", out.String())
	}
}
