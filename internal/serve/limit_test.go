package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// fakeClock is an injectable clock for limiter tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(l *rateLimiter, c *fakeClock) *rateLimiter {
	l.now = c.now
	return l
}

// TestRateLimiterBurstAndRefill: a fresh bucket admits exactly Burst
// requests back-to-back, then refills at RPS.
func TestRateLimiterBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	l := withClock(newRateLimiter(RateLimit{RPS: 10, Burst: 3}), clk)

	for i := 0; i < 3; i++ {
		if ok, _, _ := l.allow("a"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, reason, retry := l.allow("a")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if reason != limitGlobal {
		t.Fatalf("reason = %q, want %q", reason, limitGlobal)
	}
	// Empty bucket at 10 rps: the next token is 100ms away.
	if retry <= 0 || retry > 150*time.Millisecond {
		t.Fatalf("retryAfter = %v, want ~100ms", retry)
	}

	clk.advance(100 * time.Millisecond) // one token refilled
	if ok, _, _ := l.allow("a"); !ok {
		t.Fatal("rejected after refill")
	}
	if ok, _, _ := l.allow("a"); ok {
		t.Fatal("second request after a one-token refill admitted")
	}

	clk.advance(time.Hour) // refill caps at Burst, not at RPS·dt
	for i := 0; i < 3; i++ {
		if ok, _, _ := l.allow("a"); !ok {
			t.Fatalf("request %d of the recapped burst rejected", i)
		}
	}
	if ok, _, _ := l.allow("a"); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestRateLimiterPerClientIsolation: one hot client exhausting its own
// bucket must not consume another client's tokens, and a client-bucket
// shed must not burn a global token.
func TestRateLimiterPerClientIsolation(t *testing.T) {
	clk := newFakeClock()
	l := withClock(newRateLimiter(RateLimit{
		RPS: 100, Burst: 100,
		PerClientRPS: 1, PerClientBurst: 2,
	}), clk)

	for i := 0; i < 2; i++ {
		if ok, _, _ := l.allow("hot"); !ok {
			t.Fatalf("hot client request %d rejected within its burst", i)
		}
	}
	before := l.globalTokens()
	ok, reason, _ := l.allow("hot")
	if ok || reason != limitClient {
		t.Fatalf("hot client beyond burst: ok=%v reason=%q, want client-limited", ok, reason)
	}
	if got := l.globalTokens(); got != before {
		t.Fatalf("client-bucket shed burned a global token (%g → %g)", before, got)
	}
	// The other client is untouched.
	if ok, _, _ := l.allow("cold"); !ok {
		t.Fatal("cold client rejected while hot client is limited")
	}
}

// TestRateLimiterGlobalOnly and client-only configurations both work,
// and the zero value disables limiting.
func TestRateLimiterConfigs(t *testing.T) {
	if (RateLimit{}).enabled() {
		t.Fatal("zero RateLimit reports enabled")
	}
	clk := newFakeClock()
	l := withClock(newRateLimiter(RateLimit{PerClientRPS: 1}), clk)
	if ok, _, _ := l.allow("x"); !ok {
		t.Fatal("client-only limiter rejected the first request")
	}
	ok, reason, _ := l.allow("x")
	if ok || reason != limitClient {
		t.Fatalf("client-only limiter: ok=%v reason=%q", ok, reason)
	}
}

// TestRateLimiterEviction: the client table stays bounded, and an
// evicted client re-enters with a full (never an emptier) bucket.
func TestRateLimiterEviction(t *testing.T) {
	clk := newFakeClock()
	l := withClock(newRateLimiter(RateLimit{PerClientRPS: 1, PerClientBurst: 1, MaxClients: 16}), clk)
	for i := 0; i < 100; i++ {
		clk.advance(time.Millisecond) // distinct idle timestamps
		l.allow(string(rune('A' + i%64)))
	}
	l.mu.Lock()
	n := len(l.clients)
	l.mu.Unlock()
	if n > 16 {
		t.Fatalf("client table grew to %d, cap is 16", n)
	}
}

// TestRateLimit429Shape exercises the HTTP surface: a limited request
// gets 429 with a Retry-After header and a retry_after_ms body field,
// counted as rate_limited (not queue shed) in /v1/stats, with the
// request ID echoed back.
func TestRateLimit429Shape(t *testing.T) {
	s, ts := testServer(t, Options{
		Deterministic: true,
		Limits:        Limits{RateLimit: RateLimit{RPS: 1, Burst: 1}},
	})

	body, _ := json.Marshal(EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1})
	resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d, want 200 (burst of 1)", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response without an X-Request-ID header")
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != ErrCodeRateLimited {
		t.Fatalf("429 code = %q, want %q", er.Error.Code, ErrCodeRateLimited)
	}
	if er.Error.Message == "" || er.Error.RetryAfterMS <= 0 {
		t.Fatalf("429 body = %+v, want a message and a positive retry_after_ms", er)
	}

	st := s.Stats()
	if st.Requests.RateLimited != 1 {
		t.Fatalf("stats rate_limited = %d, want 1", st.Requests.RateLimited)
	}
	if st.Requests.Shed != 0 {
		t.Fatalf("stats shed = %d, want 0 (limiter fired, queues never filled)", st.Requests.Shed)
	}
	if st.Requests.Total != 1 {
		t.Fatalf("stats total = %d, want 1 (the shed request never reached an engine)", st.Requests.Total)
	}
}

// TestRateLimitPerClientHTTP: clients are keyed by X-Client-ID, so one
// client hitting its limit leaves another unaffected.
func TestRateLimitPerClientHTTP(t *testing.T) {
	_, ts := testServer(t, Options{
		Deterministic: true,
		Limits:        Limits{RateLimit: RateLimit{PerClientRPS: 0.001, PerClientBurst: 1}},
	})
	post := func(client string) int {
		body, _ := json.Marshal(EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/embed", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("alice"); code != http.StatusOK {
		t.Fatalf("alice #1 = %d, want 200", code)
	}
	if code := post("alice"); code != http.StatusTooManyRequests {
		t.Fatalf("alice #2 = %d, want 429", code)
	}
	if code := post("bob"); code != http.StatusOK {
		t.Fatalf("bob = %d, want 200 (alice's limit must not leak)", code)
	}
}
