package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/olive-vne/olive/internal/obs"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// TestMetricsEndpoint drives traffic through a 2-shard server, scrapes
// GET /metrics, and requires (a) the exposition to pass the promtext
// linter and (b) the tentpole's family floor: every family the issue
// names, and at least 12 overall.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := testServer(t, Options{Shards: 2, Deterministic: true})
	for _, sr := range testStream(t, 60) {
		body, _ := json.Marshal(sr)
		resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	fams, err := obs.Lint(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	if len(fams) < 12 {
		t.Fatalf("%d families exposed, want ≥ 12", len(fams))
	}
	for _, want := range []string{
		"vne_build_info",
		"vne_http_requests_total",
		"vne_http_request_duration_seconds",
		"vne_decisions_total",
		"vne_shed_total",
		"vne_request_duration_seconds",
		"vne_queue_wait_seconds",
		"vne_solve_duration_seconds",
		"vne_shard_queue_depth",
		"vne_shard_queue_capacity",
		"vne_shard_active_embeddings",
		"vne_shard_utilization",
		"vne_lp_solves_total",
		"vne_lp_pivots_total",
		"vne_lp_refactorizations_total",
		"vne_plan_warm_starts_total",
		"vne_revenue_total",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from /metrics", want)
		}
	}

	// The func-backed views and /v1/stats must agree: same atomics.
	st := s.Stats()
	var accepted float64
	for _, smp := range fams["vne_decisions_total"].Samples {
		if smp.Labels["outcome"] == "accepted" {
			accepted += smp.Value
		}
	}
	if int64(accepted) != st.Requests.Accepted {
		t.Fatalf("metrics accepted = %g, stats accepted = %d", accepted, st.Requests.Accepted)
	}
	// Latency histograms observed every decision.
	if got := fams["vne_request_duration_seconds"].Samples; len(got) == 0 {
		t.Fatal("request-duration histogram has no samples")
	}
	var count float64
	for _, smp := range fams["vne_request_duration_seconds"].Samples {
		if strings.HasSuffix(smp.Name, "_count") {
			count = smp.Value
		}
	}
	if int64(count) != st.Requests.Total {
		t.Fatalf("histogram count = %g, want %d", count, st.Requests.Total)
	}
	// All four shed reasons pre-registered at zero.
	if got := len(fams["vne_shed_total"].Samples); got != 4 {
		t.Fatalf("vne_shed_total has %d series, want all 4 reasons pre-registered", got)
	}
}

// TestStatsJSONShape is the backward-compatibility regression for
// /v1/stats: every pre-existing key must survive, and the new
// queue-depth/shed/warm-start fields must be present.
func TestStatsJSONShape(t *testing.T) {
	_, ts := testServer(t, Options{Deterministic: true})
	postEmbed(t, ts.URL, EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{
		// pre-existing shape
		"uptime_s", "shards", "algorithm", "deterministic",
		"requests", "revenue", "latency", "per_shard",
		// new top-level block
		"lp",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats missing top-level key %q", key)
		}
	}
	reqs, _ := m["requests"].(map[string]any)
	for _, key := range []string{
		"total", "accepted", "rejected", "preempted", "released",
		"acceptance_rate", "shed", "rate_limited",
	} {
		if _, ok := reqs[key]; !ok {
			t.Errorf("stats.requests missing key %q", key)
		}
	}
	lat, _ := m["latency"].(map[string]any)
	for _, key := range []string{"p50_us", "p90_us", "p99_us", "p999_us", "samples"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("stats.latency missing key %q", key)
		}
	}
	lpb, _ := m["lp"].(map[string]any)
	for _, key := range []string{"solves", "warm_attempts", "warm_hits", "pivots", "refactorizations", "plan_builds"} {
		if _, ok := lpb[key]; !ok {
			t.Errorf("stats.lp missing key %q", key)
		}
	}
	shards, _ := m["per_shard"].([]any)
	if len(shards) == 0 {
		t.Fatal("per_shard empty")
	}
	sh0, _ := shards[0].(map[string]any)
	for _, key := range []string{
		"shard", "processed", "accepted", "rejected", "active",
		"queue", "queue_cap", "shed", "utilization",
	} {
		if _, ok := sh0[key]; !ok {
			t.Errorf("stats.per_shard[0] missing key %q", key)
		}
	}
}

// TestDeterminismWithMetricsAndLogging is the determinism guard: the
// decision sequence of a single-shard deterministic server must be
// byte-identical with the access log on and a /metrics scrape in
// mid-stream, and with neither. Observation must never influence a
// decision.
func TestDeterminismWithMetricsAndLogging(t *testing.T) {
	stream := testStream(t, 120)
	run := func(opts Options, scrape bool) string {
		_, ts := testServer(t, opts)
		var buf bytes.Buffer
		half := len(stream) / 2
		if err := Replay(nil, ts.URL, stream[:half], &buf); err != nil {
			t.Fatal(err)
		}
		if scrape { // scrape mid-stream: reading gauges must not perturb
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err := Replay(nil, ts.URL, stream[half:], &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	quiet := run(Options{Shards: 1, Deterministic: true}, false)
	loud := run(Options{
		Shards:        1,
		Deterministic: true,
		Observability: Observability{AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil))},
	}, true)
	if quiet != loud {
		t.Fatalf("instrumentation changed the decision sequence:\n--- no log, no scrape ---\n%s\n--- access log and scrape ---\n%s", quiet, loud)
	}
	if !strings.Contains(quiet, "accepted=1") {
		t.Fatal("no accepts in the decision sequence")
	}
}

// TestAccessLogAndRequestID: the middleware logs one structured line
// per request carrying the request ID, and honors X-Request-ID.
func TestAccessLogAndRequestID(t *testing.T) {
	var logBuf bytes.Buffer
	mu := &syncWriter{w: &logBuf}
	_, ts := testServer(t, Options{
		Deterministic: true,
		Observability: Observability{AccessLog: slog.New(slog.NewJSONHandler(mu, nil))},
	})

	body, _ := json.Marshal(EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/embed", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("X-Request-ID echoed as %q, want trace-me-42", got)
	}

	line := mu.String()
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, line)
	}
	if entry["id"] != "trace-me-42" || entry["route"] != "POST /v1/embed" {
		t.Fatalf("log entry = %v, want id=trace-me-42 route=POST /v1/embed", entry)
	}
	if _, ok := entry["status"]; !ok {
		t.Fatal("log entry missing status")
	}

	// Generated IDs when the caller sends none.
	resp2, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !regexp.MustCompile(`^req-[0-9]{6,}$`).MatchString(got) {
		t.Fatalf("generated X-Request-ID %q, want req- and at least six digits", got)
	}
}

// syncWriter makes a bytes.Buffer safe for slog across goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}

// BenchmarkServeEmbedWithMetrics is the allocation budget for the fully
// instrumented embed path (CI guards allocs/op against
// testdata/bench_baseline.json). In-process handler invocation — no
// network — so the measured work is decode → route → queue → solve →
// observe → encode.
func BenchmarkServeEmbedWithMetrics(b *testing.B) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	s, err := New(g, apps, Options{Deterministic: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	h := s.Handler()

	body, _ := json.Marshal(EmbedRequest{App: 0, Ingress: 0, Demand: 0.001, Duration: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/embed", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServeEmbedParallel drives the instrumented embed path from
// 4×GOMAXPROCS goroutines at once onto one shard, so most requests find
// the shard busy and wait for it. Beside time and allocations per
// request it reports the mean and 99th percentile of
// vne_request_duration_seconds (submit to decision, the wait for the
// shard included) as shard-us/op and shard-p99-us.
func BenchmarkServeEmbedParallel(b *testing.B) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	s, err := New(g, apps, Options{Deterministic: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	h := s.Handler()

	body, _ := json.Marshal(EmbedRequest{App: 0, Ingress: 0, Demand: 0.001, Duration: 1})
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/embed", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
	b.StopTimer()
	if n := s.met.reqDur.Count(); n > 0 {
		b.ReportMetric(s.met.reqDur.Sum()/float64(n)*1e6, "shard-us/op")
		b.ReportMetric(s.met.reqDur.Quantile(0.99)*1e6, "shard-p99-us")
	}
}
