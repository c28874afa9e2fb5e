package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// testServer builds a deterministic QUICKG server over the Iris topology
// and an httptest front end. The caller must call the returned cleanup.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	s, err := New(g, apps, opts)
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
	return s, ts
}

func postEmbed(t *testing.T, url string, er EmbedRequest) (*http.Response, EmbedResponse) {
	t.Helper()
	body, _ := json.Marshal(er)
	resp, err := http.Post(url+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out EmbedResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// testStream generates a canned request stream from the Iris MMPP
// workload at a fixed seed: real arrival slots, real demands.
func testStream(t *testing.T, n int) []StreamRequest {
	t.Helper()
	g := topo.MustBuild(topo.Iris, 1)
	wp := workload.DefaultParams().WithUtilization(1.0)
	wp.Slots = 120
	wp.LambdaPerNode = 3
	wp.NumApps = 4
	wp.DemandMean = 1.0 * 100 / 3
	tr, err := workload.GenerateMMPP(g, wp, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) < n {
		t.Fatalf("trace holds %d requests, want ≥ %d", len(tr.Requests), n)
	}
	reqs := make([]StreamRequest, n)
	for i, r := range tr.Requests[:n] {
		reqs[i] = StreamRequest{
			App: r.App, Ingress: int(r.Ingress), Demand: r.Demand,
			Duration: r.Duration, Arrive: r.Arrive,
		}
	}
	return reqs
}

func TestEmbedAcceptAndReleaseByHandle(t *testing.T) {
	_, ts := testServer(t, Options{Deterministic: true})
	resp, out := postEmbed(t, ts.URL, EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/embed = %d, want 200", resp.StatusCode)
	}
	if !out.Accepted {
		t.Fatal("tiny request rejected on an empty substrate")
	}
	if out.Cost <= 0 {
		t.Fatalf("accepted with cost %g, want > 0", out.Cost)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/embeddings/%d", ts.URL, out.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rel ReleaseResponse
	json.NewDecoder(dresp.Body).Decode(&rel)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !rel.Released {
		t.Fatalf("DELETE = %d released=%v, want 200 released", dresp.StatusCode, rel.Released)
	}
	// Releasing again: gone.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/embeddings/%d", ts.URL, out.ID), nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", dresp.StatusCode)
	}
}

func TestEmbedValidation(t *testing.T) {
	_, ts := testServer(t, Options{Deterministic: true})
	bad := []EmbedRequest{
		{App: 99, Ingress: 0, Demand: 1, Duration: 1},
		{App: 0, Ingress: -1, Demand: 1, Duration: 1},
		{App: 0, Ingress: 0, Demand: 0, Duration: 1},
		{App: 0, Ingress: 0, Demand: 1, Duration: 0},
		{App: 0, Ingress: 0, Demand: 1, Duration: math.MaxInt, Arrive: 5}, // departure overflows
	}
	for i, er := range bad {
		resp, _ := postEmbed(t, ts.URL, er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d = %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestConcurrentPosts hammers a 2-shard server from many goroutines; run
// under -race this is the data-race probe for the queue/stats paths.
func TestConcurrentPosts(t *testing.T) {
	s, ts := testServer(t, Options{Shards: 2, Deterministic: true})
	stream := testStream(t, 200)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				body, _ := json.Marshal(stream[i])
				resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("request %d: HTTP %d", i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests.Total != int64(len(stream)) {
		t.Fatalf("stats total = %d, want %d", st.Requests.Total, len(stream))
	}
	if st.Requests.Accepted == 0 {
		t.Fatal("no request accepted")
	}
	var perShard int64
	for _, ss := range st.PerShard {
		perShard += ss.Processed
	}
	if perShard != st.Requests.Total {
		t.Fatalf("per-shard sum %d ≠ total %d", perShard, st.Requests.Total)
	}
}

// submitAsync submits o to sh from its own goroutine, as a handler
// would, and returns once o counts among sh's waiting ops (after ten
// seconds it fails the test); o's result arrives on the returned channel.
// With sh's mutex held, tests use it to occupy a wait slot
// deterministically.
func submitAsync(t *testing.T, sh *shard, o op) <-chan result {
	t.Helper()
	before := sh.waiting.Load()
	c := make(chan result, 1)
	go func() {
		res, _ := sh.submit(o, true)
		c <- res
	}()
	if !waitWaiting(sh, before+1) {
		t.Fatal("submitted op never counted as waiting")
	}
	return c
}

// embedReply is one asynchronous POST /v1/embed outcome.
type embedReply struct {
	status int
	out    EmbedResponse
	err    error
}

// postEmbedAsync posts er from its own goroutine (t.Fatal is off limits
// there) and delivers the outcome on the returned channel.
func postEmbedAsync(url string, er EmbedRequest) <-chan embedReply {
	c := make(chan embedReply, 1)
	go func() {
		body, _ := json.Marshal(er)
		resp, err := http.Post(url+"/v1/embed", "application/json", bytes.NewReader(body))
		if err != nil {
			c <- embedReply{err: err}
			return
		}
		defer resp.Body.Close()
		r := embedReply{status: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.out)
		}
		c <- r
	}()
	return c
}

// waitWaiting polls until sh counts n waiting ops, reporting false after
// ten seconds.
func waitWaiting(sh *shard, n int64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for sh.waiting.Load() != n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestBackpressure429 stalls the single shard, fills its depth-1 queue
// and checks the next request bounces with 429 instead of queueing. The
// first request stalls inside its decision, holding the shard. The queue
// is filled directly (not via a racing second client): a client whose
// request IS admitted blocks awaiting its decision, so any admission here
// would deadlock the test.
func TestBackpressure429(t *testing.T) {
	stall := make(chan struct{})
	closeStall := sync.OnceFunc(func() { close(stall) })
	defer closeStall()
	entered := make(chan struct{}, 1)
	var once sync.Once
	opts := Options{
		Deterministic: true,
		Limits:        Limits{QueueDepth: 1},
		testHookProcess: func(int) {
			once.Do(func() {
				entered <- struct{}{}
				<-stall
			})
		},
	}
	s, ts := testServer(t, opts)

	er := EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1}
	first := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(er)
		resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered // the shard is stalled inside the first request

	// Fill the depth-1 queue deterministically with a no-op release.
	filler := submitAsync(t, s.allShards()[0], op{kind: opRelease, id: -1})

	// Queue full: the next request must bounce synchronously with 429.
	resp, _ := postEmbed(t, ts.URL, er)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST with full queue = %d, want 429", resp.StatusCode)
	}

	closeStall()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("stalled request finished with %d, want 200", code)
	}
	<-filler
}

// TestEmbedWaitsForBusyShard: an embed posted while its shard is in use
// counts as waiting and is decided once the shard is free, after the op
// that held it. The test holds the shard, posts an embed arriving at slot
// 5, and moves the clock to slot 7 before letting go: the embed must be
// decided at slot 7, and the shard must count no waiting op afterwards.
func TestEmbedWaitsForBusyShard(t *testing.T) {
	s, ts := testServer(t, Options{Deterministic: true})
	sh := s.allShards()[0]

	sh.mu.Lock()
	b := postEmbedAsync(ts.URL, EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 10, Arrive: 5})
	waited := waitWaiting(sh, 1)
	sh.advance(7)
	sh.mu.Unlock()
	if !waited {
		t.Fatal("the embed never waited for the busy shard")
	}
	rb := <-b
	if rb.err != nil || rb.status != http.StatusOK {
		t.Fatalf("embed: HTTP %d, %v", rb.status, rb.err)
	}
	if rb.out.Slot != 7 {
		t.Fatalf("embed decided at slot %d, want 7: it did not wait for the shard", rb.out.Slot)
	}
	if n := sh.waiting.Load(); n != 0 {
		t.Fatalf("shard counts %d waiting ops after its only waiter was decided", n)
	}
}

// TestGracefulDrain checks Drain refuses new work with 503 but completes
// the decisions already admitted.
func TestGracefulDrain(t *testing.T) {
	stall := make(chan struct{})
	closeStall := sync.OnceFunc(func() { close(stall) })
	defer closeStall()
	entered := make(chan struct{}, 1)
	var once sync.Once
	opts := Options{
		Deterministic: true,
		testHookProcess: func(int) {
			once.Do(func() {
				entered <- struct{}{}
				<-stall
			})
		},
	}
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	s, err := New(g, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	er := EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1}
	inflight := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(er)
		resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered // the in-flight request is inside the shard

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Wait for Drain to flip the flag (it does so synchronously on
	// entry) before probing: a request posted in the pre-drain window
	// would be admitted and block on the stalled shard.
	deadline := time.Now().Add(10 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started refusing requests")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postEmbed(t, ts.URL, er); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	// The stalled request still completes with a decision.
	closeStall()
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicDecisionSequence runs the same canned stream against
// two fresh single-shard fixed-seed servers and requires byte-identical
// decision sequences — the property the CI golden job leans on.
func TestDeterministicDecisionSequence(t *testing.T) {
	stream := testStream(t, 150)
	run := func() string {
		_, ts := testServer(t, Options{Shards: 1, Deterministic: true})
		var buf bytes.Buffer
		if err := Replay(nil, ts.URL, stream, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("decision sequences differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	// The sequence must contain at least one accept and, at util 1.0 on
	// a shared substrate, typically rejects too; assert non-trivially.
	if !bytes.Contains([]byte(a), []byte("accepted=1")) {
		t.Fatal("no accepts in the decision sequence")
	}
}

// TestDepartureTimerReleases checks real-time mode: an embedding with a
// 1-slot lifetime is released by the departure timer without any further
// requests arriving.
func TestDepartureTimerReleases(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	s, err := New(g, apps, Options{SlotDuration: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postEmbed(t, ts.URL, EmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 1})
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("POST = %d accepted=%v, want 200 accepted", resp.StatusCode, out.Accepted)
	}
	deadline := time.After(10 * time.Second)
	for {
		var active int64
		for _, ss := range s.Stats().PerShard {
			active += ss.Active
		}
		if active == 0 {
			return // released by the timer
		}
		select {
		case <-deadline:
			t.Fatal("departure timer never released the embedding")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestSlotOffRejected: SLOTOFF is batch-only.
func TestSlotOffRejected(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	if _, err := New(g, apps, Options{Algorithm: core.AlgoSlotOff}); err == nil {
		t.Fatal("New accepted SLOTOFF")
	}
	if _, err := New(g, apps, Options{Algorithm: core.AlgoOLIVE}); err == nil {
		t.Fatal("New accepted OLIVE without a plan")
	}
}
