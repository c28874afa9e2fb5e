package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/obs"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/serve"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/workload"
)

// serveBench is serve-drift-iris: what an operator of vnesimd sees. The
// server is wired as cmd/vnesimd wires it (two shards, deterministic
// clock, replanning on, metrics on, no rate limit, a real http.Server on
// loopback); one closed-loop caller on one keep-alive connection posts an
// MMPP stream whose ingresses are redrawn from the halfway slot on, and
// triggers a synchronous replan every replanEvery requests. The unit
// operation is one POST /v1/embed round trip as the caller times it.
//
// One caller, not one per CPU: with two callers on the two CPUs every
// request in flight keeps a CPU busy, the collector and the netpoller have
// none left, and one round trip in a thousand waits 4 ms for a scheduler
// tick (p99.9 4.1 ms, against 0.6 ms with one caller). One caller also
// makes the decisions a function of the stream alone, so every pass must
// produce the same digest. bench/README.md has the measurements.
type serveBench struct {
	sc          scale
	warm, timed int // requests before and inside the timed region
	replanEvery int

	seed   uint64
	scn    *scenario
	plan   *plan.Plan
	stream []workload.Request

	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	used    bool
	handler *handlerTrace // non-nil once a traced server runs

	generate time.Duration
}

// servePasses is the least number of passes a run makes.
const servePasses = 3

func newServeBench(sc scale) bench {
	return &serveBench{
		sc:          sc,
		warm:        pick(sc, 10000, 300),
		timed:       pick(sc, 40000, 3000),
		replanEvery: pick(sc, 8000, 1000),
	}
}

func (b *serveBench) setup(seed uint64) error {
	b.close()
	b.seed = seed
	scn, err := newScenario(pick(b.sc, topo.Iris, topo.CittaStudi))
	if err != nil {
		return err
	}
	const lambda = 10.0
	// The construction plan is yesterday's: built from the scenario's own
	// history, the same for every seed. The seed draws today's stream.
	t0 := time.Now()
	hist, err := scn.base(traceSpec{stream: 0x4000, slots: pick(b.sc, 200, 40), lambda: lambda, util: 1.0})
	if err != nil {
		return err
	}
	d1 := time.Since(t0)
	if b.plan, err = plan.BuildFromHistory(scn.g, scn.apps, hist, plan.DefaultOptions(), rand.New(rand.NewPCG(scenarioSeed, 0xa660))); err != nil {
		return err
	}
	if err := checkPlan(b.plan, scn.g); err != nil {
		return err
	}
	n := b.warm + b.timed
	perSlot := lambda * float64(len(scn.g.EdgeNodes()))
	slots := int(1.5*float64(n)/perSlot) + 20 // bursts and lulls: the count per slot swings 0.5x to 1.5x
	tr, d2, err := scn.trace(traceSpec{stream: 0x4001, slots: slots, lambda: lambda, util: 1.0}, seed)
	if err != nil {
		return err
	}
	if len(tr.Requests) < n {
		return fmt.Errorf("stream has %d requests, want %d", len(tr.Requests), n)
	}
	// The traffic shift the replans recover from: from the halfway slot
	// on every ingress is redrawn uniformly, so the construction plan is
	// stale for the second half.
	tr.Requests = tr.Requests[:n]
	tr = workload.ShuffleIngressFrom(tr, scn.g, tr.Requests[n/2].Arrive, rand.New(rand.NewPCG(seed, 0xd21f)))
	b.scn, b.stream, b.generate = scn, tr.Requests, d1+d2
	return b.start(false)
}

// handlerTrace records one span per request the wrapped handler serves.
type handlerTrace struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // Name is filled in at merge; Req is the X-Request-ID
}

func (h *handlerTrace) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Since(h.epoch)
		next.ServeHTTP(w, r)
		t1 := time.Since(h.epoch)
		id, err := strconv.Atoi(r.Header.Get("X-Request-ID"))
		if err != nil {
			return // not one of the callers' embeds
		}
		h.mu.Lock()
		h.spans = append(h.spans, span{Start: int64(t0), End: int64(t1), Parent: -1, Req: int32(id)})
		h.mu.Unlock()
	})
}

// start brings up a fresh server and listener.
func (b *serveBench) start(traced bool) error {
	srv, err := serve.New(b.scn.g, b.scn.apps, serve.Options{
		Shards:        2,
		Algorithm:     core.AlgoOLIVE,
		Plan:          b.plan,
		Deterministic: true,
		Replan:        serve.Replan{Enabled: true, Seed: b.seed},
	})
	if err != nil {
		return err
	}
	h := srv.Handler()
	b.handler = nil
	if traced {
		b.handler = &handlerTrace{epoch: time.Now(), spans: make([]span, 0, len(b.stream))}
		h = b.handler.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv, b.httpSrv, b.served = srv, &http.Server{Handler: h}, make(chan error, 1)
	b.base = "http://" + ln.Addr().String()
	b.used = false
	go func(hs *http.Server, done chan<- error) { done <- hs.Serve(ln) }(b.httpSrv, b.served)
	return nil
}

// close drains the server, shuts the listener down and waits for the
// accept loop to return.
func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx)        // a timeout here still lets Shutdown close the listener
	_ = b.httpSrv.Shutdown(ctx) // likewise; Serve then returns ErrServerClosed
	<-b.served
	b.srv, b.httpSrv = nil, nil
}

// Span names inside a caller's own tracer; tracedMetrics renames them when
// it merges the callers' spans.
const (
	callerRTT    = 0
	callerReplan = 1
)

// tally is what the caller has been told so far.
type tally struct{ accepted, rejected, preempted int }

// caller is the closed-loop client: its connection, its counts.
type caller struct {
	client *http.Client
	body   []byte // reused request body
	resp   bytes.Buffer

	tally
	failed, shed int
	digest       uint64 // of every decision, in order
	rttNS        []float64
	replanNS     []float64
	tr           *tracer
	firstErr     error
}

type embedReply struct {
	Accepted  bool  `json:"accepted"`
	Preempted []int `json:"preempted"`
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// post sends one request and reads the whole reply into c.resp.
func (c *caller) post(url string, body []byte, id int) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set("X-Request-ID", strconv.Itoa(id))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func (c *caller) embed(base string, r workload.Request, id int) {
	buf := append(c.body[:0], `{"app":`...)
	buf = strconv.AppendInt(buf, int64(r.App), 10)
	buf = append(buf, `,"ingress":`...)
	buf = strconv.AppendInt(buf, int64(r.Ingress), 10)
	buf = append(buf, `,"demand":`...)
	buf = strconv.AppendFloat(buf, r.Demand, 'g', -1, 64)
	buf = append(buf, `,"duration":`...)
	buf = strconv.AppendInt(buf, int64(r.Duration), 10)
	buf = append(buf, `,"arrive":`...)
	buf = strconv.AppendInt(buf, int64(r.Arrive), 10)
	c.body = append(buf, '}')

	var t0 int64
	if c.tr != nil {
		t0 = c.tr.now()
	}
	start := time.Now()
	status, err := c.post(base+"/v1/embed", c.body, id)
	rtt := time.Since(start)
	switch {
	case err != nil:
		c.fail(fmt.Errorf("embed %d: %w", id, err))
		return
	case status == http.StatusTooManyRequests:
		c.shed++
		c.fail(fmt.Errorf("embed %d: shed with HTTP 429", id))
		return
	case status != http.StatusOK:
		c.fail(fmt.Errorf("embed %d: HTTP %d: %s", id, status, strings.TrimSpace(c.resp.String())))
		return
	}
	var er embedReply
	if err := json.Unmarshal(c.resp.Bytes(), &er); err != nil {
		c.fail(fmt.Errorf("embed %d: %w", id, err))
		return
	}
	v := uint64(len(er.Preempted)) << 1
	if er.Accepted {
		c.accepted++
		v |= 1
	} else {
		c.rejected++
	}
	c.digest = fnv1a(c.digest, v)
	for _, id := range er.Preempted {
		c.digest = fnv1a(c.digest, uint64(id))
	}
	c.preempted += len(er.Preempted)
	c.rttNS = append(c.rttNS, float64(rtt))
	if c.tr != nil {
		c.tr.add(callerRTT, t0, t0+int64(rtt), -1, int32(id))
	}
}

func (c *caller) replan(base string) {
	var t0 int64
	if c.tr != nil {
		t0 = c.tr.now()
	}
	start := time.Now()
	status, err := c.post(base+"/v1/admin/replan", nil, -1)
	d := time.Since(start)
	switch {
	case err != nil:
		c.fail(fmt.Errorf("replan: %w", err))
	case status != http.StatusOK:
		c.fail(fmt.Errorf("replan: HTTP %d: %s", status, strings.TrimSpace(c.resp.String())))
	default:
		c.replanNS = append(c.replanNS, float64(d))
		if c.tr != nil {
			c.tr.add(callerReplan, t0, t0+int64(d), -1, -1)
		}
	}
}

// drive sends stream[from:to] and returns the wall time. A replan goes
// out before every replanEvery-th request of the timed region.
func (b *serveBench) drive(c *caller, from, to int, onReplan func()) time.Duration {
	start := time.Now()
	for i := from; i < to; i++ {
		if k := i - b.warm; k > 0 && k%b.replanEvery == 0 {
			c.replan(b.base)
			if onReplan != nil {
				onReplan()
			}
		}
		c.embed(b.base, b.stream[i], i)
	}
	return time.Since(start)
}

// adopted reports whether every shard runs the published generation.
func (b *serveBench) adopted() bool {
	ps := b.srv.PlanStatus()
	for _, g := range ps.ShardGenerations {
		if g != ps.Generation {
			return false
		}
	}
	return true
}

// histSumCount reads one histogram's running sum and count off a scrape.
func histSumCount(fams map[string]*obs.ParsedFamily, name string) (sum, count float64) {
	f := fams[name]
	if f == nil {
		return 0, 0
	}
	for _, s := range f.Samples {
		switch s.Name {
		case name + "_sum":
			sum += s.Value
		case name + "_count":
			count += s.Value
		}
	}
	return sum, count
}

func (b *serveBench) scrape() (map[string]*obs.ParsedFamily, error) {
	return obs.ParseText(strings.NewReader(b.srv.Metrics().Render()))
}

func (b *serveBench) run(budget time.Duration, tr *tracer) (*result, error) {
	res := &result{layer: map[string]float64{}, tail: 0.99}
	layer := map[string][]float64{}
	c0 := readCounters()
	start := time.Now()
	passes := 0
	for ; passes < servePasses || time.Since(start) < budget; passes++ {
		if err := b.pass(res, layer, tr); err != nil {
			return nil, err
		}
	}
	counterMetrics(res.layer, c0, readCounters(), passes)
	for name, vals := range layer {
		res.layer[name] = median(vals)
	}
	return res, nil
}

// pass serves the whole stream once, on a fresh server and a fresh
// connection: the warm-up, untimed, then the timed region. Every pass
// does the same work and must take the same decisions, so the run reports
// medians over passes, and a stretch in which the host was busy with
// something else costs one pass, not the result.
func (b *serveBench) pass(res *result, layer map[string][]float64, tr *tracer) error {
	if b.used || (tr != nil) != (b.handler != nil) {
		b.close()
		if err := b.start(tr != nil); err != nil {
			return err
		}
	}
	b.used = true
	c := &caller{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		digest: fnvOffset,
		rttNS:  make([]float64, 0, b.timed),
	}
	defer c.client.CloseIdleConnections()

	b.drive(c, 0, b.warm, nil)
	warm := c.tally
	c.rttNS = c.rttNS[:0]

	// Traced passes measure how long every shard takes to pick up a new
	// generation after the replan call returned.
	var adoptMu sync.Mutex
	var adoptNS []float64
	var adoptWG sync.WaitGroup
	var onReplan func()
	var before map[string]*obs.ParsedFamily
	var mem0 runtime.MemStats
	if tr != nil {
		c.tr = newTracer(tr.epoch, b.timed)
		onReplan = func() {
			t0 := time.Now()
			adoptWG.Add(1)
			go func() {
				defer adoptWG.Done()
				for time.Since(t0) < 2*time.Second {
					if b.adopted() {
						adoptMu.Lock()
						adoptNS = append(adoptNS, float64(time.Since(t0)))
						adoptMu.Unlock()
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
			}()
		}
		var err error
		if before, err = b.scrape(); err != nil {
			return err
		}
		runtime.ReadMemStats(&mem0)
	}
	runtime.GC()
	wall := b.drive(c, b.warm, b.warm+b.timed, onReplan)
	adoptWG.Wait()

	res.failed += c.failed
	if c.firstErr != nil {
		return fmt.Errorf("%d operations failed, first: %w", c.failed, c.firstErr)
	}
	if res.digest != 0 && c.digest != res.digest {
		return fmt.Errorf("output check failed: decisions differ between passes (digest %#x, then %#x)", res.digest, c.digest)
	}
	res.digest = c.digest
	sent := len(c.rttNS)
	res.attempted += sent + len(c.replanNS)
	res.passNS = append(res.passNS, c.rttNS)
	res.passOps = append(res.passOps, float64(sent)/wall.Seconds())
	res.rejectRatio = float64(c.rejected-warm.rejected+c.preempted-warm.preempted) / float64(sent)

	// The server's own books must agree with what the caller saw.
	if err := b.checkBooks(c); err != nil {
		return err
	}
	layer["serve.replan_ms"] = append(layer["serve.replan_ms"], median(c.replanNS)/1e6)
	if tr != nil {
		m, err := b.tracedMetrics(sortedCopy(c.rttNS), tr, c, before, mem0, adoptNS)
		if err != nil {
			return err
		}
		for name, v := range m {
			layer[name] = append(layer[name], v)
		}
	}
	return nil
}

// checkBooks compares /v1/stats and the plan status with the caller's
// counts.
func (b *serveBench) checkBooks(c *caller) error {
	seen, replans := c.tally, len(c.replanNS)
	resp, err := c.client.Get(b.base + "/v1/stats")
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var st serve.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	rq := st.Requests
	sent := seen.accepted + seen.rejected
	if err := checkf(int(rq.Total) == sent && int(rq.Accepted) == seen.accepted && int(rq.Rejected) == seen.rejected && int(rq.Preempted) == seen.preempted,
		"/v1/stats says total %d accepted %d rejected %d preempted %d; the caller saw %d, %d, %d, %d",
		rq.Total, rq.Accepted, rq.Rejected, rq.Preempted, sent, seen.accepted, seen.rejected, seen.preempted); err != nil {
		return err
	}
	if err := checkf(rq.Shed == 0 && rq.RateLimited == 0, "server shed %d and rate-limited %d requests", rq.Shed, rq.RateLimited); err != nil {
		return err
	}
	ps := b.srv.PlanStatus()
	if err := checkf(int(ps.Generation) == replans && int(st.Replan.Rebuilds) == replans && st.Replan.Failed == 0,
		"generation %d, rebuilds %d, failed %d after %d successful replans", ps.Generation, st.Replan.Rebuilds, st.Replan.Failed, replans); err != nil {
		return err
	}
	for i, g := range ps.ShardGenerations {
		if err := checkf(g == ps.Generation, "shard %d runs generation %d, published is %d", i, g, ps.Generation); err != nil {
			return err
		}
	}
	return nil
}

// tracedMetrics merges the caller's and the handler's spans of one pass
// into tr, replacing the pass before, and derives the serve layer's
// metrics from them; rtt is the pass's sorted round trips.
func (b *serveBench) tracedMetrics(rtt []float64, tr *tracer, c *caller, before map[string]*obs.ParsedFamily, mem0 runtime.MemStats, adoptNS []float64) (map[string]float64, error) {
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	nRTT, nReplan, nHandler := tr.name("loadgen.round_trip"), tr.name("loadgen.replan"), tr.name("serve.Handler")
	tr.reset()
	tr.reserve(2*len(rtt) + 64)
	rttOf := map[int32]int32{} // request id → index of its round-trip span
	for _, s := range c.tr.spans {
		if s.Name == callerReplan {
			s.Name = nReplan
		} else {
			s.Name = nRTT
			rttOf[s.Req] = int32(len(tr.spans))
		}
		tr.spans = append(tr.spans, s)
	}
	// The handler's clock started at server start; shift onto tr's.
	shift := int64(b.handler.epoch.Sub(tr.epoch))
	b.handler.mu.Lock()
	hs := b.handler.spans
	b.handler.mu.Unlock()
	var handlerNS, transportNS []float64
	for _, s := range hs {
		parent, ok := rttOf[s.Req]
		if !ok {
			continue // a warm-up request
		}
		s.Name, s.Parent = nHandler, parent
		s.Start += shift
		s.End += shift
		tr.spans = append(tr.spans, s)
		handlerNS = append(handlerNS, float64(s.End-s.Start))
	}
	for i, self := range selfTimes(tr.spans) {
		if tr.spans[i].Name == nRTT {
			transportNS = append(transportNS, float64(self))
		}
	}
	m := map[string]float64{}
	h := sortedCopy(handlerNS)
	m["serve.handler_p50_us"] = percentile(h, 0.5) / 1e3
	m["serve.handler_p99_us"] = percentile(h, 0.99) / 1e3
	m["serve.transport_p50_us"] = median(transportNS) / 1e3
	m["serve.rtt_p999_us"] = percentile(rtt, 0.999) / 1e3
	m["serve.rtt_p9999_us"] = percentile(rtt, 0.9999) / 1e3
	m["serve.adopt_ms"] = median(adoptNS) / 1e6
	m["serve.allocs_per_req"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(len(rtt))
	m["serve.shed"] = float64(c.shed)
	for metric, fam := range map[string]string{
		"serve.queue_wait_us": "vne_queue_wait_seconds",
		"serve.solve_us":      "vne_solve_duration_seconds",
		"serve.swap_us":       "vne_replan_swap_duration_seconds",
	} {
		s0, n0 := histSumCount(before, fam)
		s1, n1 := histSumCount(after, fam)
		if n1 > n0 {
			m[metric] = (s1 - s0) / (n1 - n0) * 1e6
		}
	}
	return m, nil
}

func (b *serveBench) probe(m map[string]float64, budget time.Duration) {
	m["topo.build_ms"] = float64(b.scn.topoBuild) / 1e6
	m["workload.generate_ms"] = float64(b.generate) / 1e6
	// One /metrics rendering, as a scraper would ask for, with the
	// caller idle.
	m["obs.scrape_ms"] = timeBatches(budget, 3, 1, func() { b.srv.Metrics().Render() }) / 1e6
	probeLayers(m, budget, b.scn, &workload.Trace{Requests: b.stream}, b.plan)
}

// writeStream stores the request stream in serve.SaveStream format, so
// that it can be replayed against a real vnesimd.
func (b *serveBench) writeStream(path string) error {
	reqs := make([]serve.StreamRequest, len(b.stream))
	for i, r := range b.stream {
		reqs[i] = serve.StreamRequest{App: r.App, Ingress: int(r.Ingress), Demand: r.Demand, Duration: r.Duration, Arrive: r.Arrive}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := serve.SaveStream(f, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
