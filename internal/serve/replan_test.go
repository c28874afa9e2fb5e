package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// testPlan builds a small PLAN-VNE plan over the Iris topology for OLIVE
// serving tests, from the same app mix testServer uses.
func testPlan(t *testing.T, g *graph.Graph, apps []*vnet.App) *plan.Plan {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	wp := workload.DefaultParams().WithUtilization(1.0)
	wp.Slots = 60
	wp.LambdaPerNode = 3
	wp.NumApps = len(apps)
	wp.DemandMean = 100.0 / 3
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.BuildFromHistory(g, apps, hist, plan.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oliveServer is testServer with a plan and replanning enabled.
func oliveServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(7, 7)))
	opts.Plan = testPlan(t, g, apps)
	return testServer(t, opts)
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeEnvelope(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error response does not parse as envelope: %v", err)
	}
	if er.Error.Code == "" || er.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", er.Error)
	}
	return er.Error
}

// TestErrorEnvelopeShape checks that every distinct error path answers
// with the {"error":{"code","message"}} envelope and the right code.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := testServer(t, Options{Deterministic: true})

	// bad_request: malformed body.
	resp, err := http.Post(ts.URL+"/v1/embed", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed embed = %d, want 400", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp).Code; code != ErrCodeBadRequest {
		t.Fatalf("malformed embed code = %q, want %q", code, ErrCodeBadRequest)
	}

	// not_found: releasing an embedding that never existed.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/embeddings/999999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown release = %d, want 404", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp).Code; code != ErrCodeNotFound {
		t.Fatalf("unknown release code = %q, want %q", code, ErrCodeNotFound)
	}

	// replan_disabled: the admin trigger on a plan-less server.
	resp = postJSON(t, ts.URL+"/v1/admin/replan", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replan on QUICKG = %d, want 409", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp).Code; code != ErrCodeReplanDisabled {
		t.Fatalf("replan on QUICKG code = %q, want %q", code, ErrCodeReplanDisabled)
	}

	// bad_request on the resize endpoint.
	resp = postJSON(t, ts.URL+"/v1/admin/resize", map[string]int{"shards": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resize to 0 = %d, want 400", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp).Code; code != ErrCodeBadRequest {
		t.Fatalf("resize to 0 code = %q, want %q", code, ErrCodeBadRequest)
	}
}

// TestReplanConflictCodes covers the replan-state 409s: insufficient
// history on an empty server, replan_in_progress while a rebuild runs.
func TestReplanConflictCodes(t *testing.T) {
	s, ts := oliveServer(t, Options{
		Deterministic: true,
		Replan:        Replan{Enabled: true, MinHistory: 8, Seed: 7},
	})

	resp := postJSON(t, ts.URL+"/v1/admin/replan", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replan with no history = %d, want 409", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp).Code; code != ErrCodeInsufficientHistory {
		t.Fatalf("no-history code = %q, want %q", code, ErrCodeInsufficientHistory)
	}

	// White-box: mark a rebuild as running and re-trigger.
	s.replan.running.Store(true)
	resp = postJSON(t, ts.URL+"/v1/admin/replan", nil)
	s.replan.running.Store(false)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replan while busy = %d, want 409", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp).Code; code != ErrCodeReplanInProgress {
		t.Fatalf("busy code = %q, want %q", code, ErrCodeReplanInProgress)
	}
}

// replayLocal posts a stream through the test server and fails on any
// non-200 (the zero-drop property the e2e also asserts).
func replayLocal(t *testing.T, ts *httptest.Server, reqs []StreamRequest) {
	t.Helper()
	for i, r := range reqs {
		resp, out := postEmbed(t, ts.URL, EmbedRequest{
			App: r.App, Ingress: r.Ingress, Demand: r.Demand,
			Duration: r.Duration, Arrive: r.Arrive,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, resp.StatusCode)
		}
		_ = out
	}
}

// TestHistoryRingDeterminism: identical replays against identical servers
// export byte-identical history traces, and the ring stays bounded.
func TestHistoryRingDeterminism(t *testing.T) {
	reqs := testStream(t, 120)
	export := func() []byte {
		s, ts := oliveServer(t, Options{
			Deterministic: true,
			Shards:        2,
			Replan:        Replan{Enabled: true, HistoryDepth: 64, Seed: 7},
		})
		replayLocal(t, ts, reqs)
		tr := s.HistoryTrace()
		if err := tr.Validate(); err != nil {
			t.Fatalf("exported history does not validate as a trace: %v", err)
		}
		if len(tr.Requests) > 2*64 {
			t.Fatalf("history holds %d requests, ring cap is 2×64", len(tr.Requests))
		}
		if got := s.historyDepth(); got != len(tr.Requests) {
			t.Fatalf("historyDepth = %d, export holds %d", got, len(tr.Requests))
		}
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := export()
	b := export()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical replays exported different history traces")
	}
}

// TestReplanHotSwap: feeding history and triggering a replan publishes
// generation 1, every routable shard adopts it on its next operation, and
// the admin/plan surfaces agree.
func TestReplanHotSwap(t *testing.T) {
	s, ts := oliveServer(t, Options{
		Deterministic: true,
		Shards:        2,
		Replan:        Replan{Enabled: true, MinHistory: 16, Seed: 7},
	})
	reqs := testStream(t, 80)
	replayLocal(t, ts, reqs[:40])

	resp := postJSON(t, ts.URL+"/v1/admin/replan", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replan = %d, want 200 (body code %q)", resp.StatusCode, decodeEnvelope(t, resp).Code)
	}
	var rr ReplanResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.Generation != 1 || rr.Classes <= 0 || rr.HistoryRequests < 16 {
		t.Fatalf("replan response %+v, want generation 1 with classes and history", rr)
	}

	// The remaining requests are decided under (or after adopting) gen 1.
	replayLocal(t, ts, reqs[40:])
	for _, sh := range s.routeShards() {
		if got := sh.gen.Load(); got != 1 {
			t.Fatalf("shard %d generation = %d, want 1", sh.idx, got)
		}
	}

	hresp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	var info PlanInfo
	if err := json.NewDecoder(hresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if info.Generation != 1 || !info.ReplanEnabled || info.Classes <= 0 {
		t.Fatalf("GET /v1/plan = %+v, want generation 1 with classes", info)
	}

	st := s.Stats()
	if st.Replan.Generation != 1 || st.Replan.Rebuilds != 1 {
		t.Fatalf("stats replan = %+v, want generation 1, rebuilds 1", st.Replan)
	}
	if text := s.Metrics().Render(); !strings.Contains(text, "vne_replan_generation 1") {
		t.Fatal("metrics missing vne_replan_generation 1")
	}
}

// TestHotSwapUnderLoad hammers embeds from several goroutines while
// replans publish and /v1/stats and /metrics read the shards' counters
// concurrently (run under -race in CI): no request may fail, no shard may
// observe a generation decrease.
func TestHotSwapUnderLoad(t *testing.T) {
	s, ts := oliveServer(t, Options{
		Deterministic: true,
		Shards:        2,
		Replan:        Replan{Enabled: true, MinHistory: 8, Seed: 7},
	})
	reqs := testStream(t, 60)
	replayLocal(t, ts, reqs[:20]) // seed enough history for rebuilds

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Stats()
				s.Metrics().Render()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Adoption is per-shard: shards trail the published generation
			// independently, so monotonicity is asserted per shard index.
			prev := map[int]int64{}
			for i := 0; i < 40; i++ {
				r := reqs[20+(w*40+i)%40]
				resp := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
					App: r.App, Ingress: r.Ingress, Demand: r.Demand,
					Duration: r.Duration, Arrive: r.Arrive,
				})
				if resp.StatusCode != http.StatusOK {
					errs <- "embed status " + resp.Status
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				for _, sh := range s.routeShards() {
					if g := sh.gen.Load(); g < prev[sh.idx] {
						errs <- "generation went backwards"
						return
					} else {
						prev[sh.idx] = g
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := s.TriggerReplan(); err != nil {
				errs <- "trigger: " + err.Error()
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := s.planGen.Load(); got != 5 {
		t.Fatalf("published generation = %d, want 5", got)
	}
}

// capacityVec is the substrate's full per-element capacity.
func capacityVec(g *graph.Graph) []float64 {
	return append([]float64(nil), substrate.New(g).ResidualVec()...)
}

// totalResidual sums the residual vectors of every shard ever created,
// each read under its shard's mutex.
func totalResidual(s *Server) []float64 {
	total := make([]float64, s.g.NumElements())
	for _, sh := range s.allShards() {
		sh.mu.Lock()
		for i, v := range sh.st.ResidualVec() {
			total[i] += v
		}
		sh.mu.Unlock()
	}
	return total
}

func assertVecEqual(t *testing.T, got, want []float64, context string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: element %d residual = %g, want %g", context, i, got[i], want[i])
		}
	}
}

// TestResizeConservation: growing and shrinking the shard set conserves
// substrate capacity elementwise — free residual moves, it is never
// duplicated or lost.
func TestResizeConservation(t *testing.T) {
	s, ts := testServer(t, Options{Deterministic: true, Shards: 3})
	capa := capacityVec(s.g)
	assertVecEqual(t, totalResidual(s), capa, "fresh 3-shard server")

	// Embed some load, then shrink 3→2 with embeddings live.
	reqs := testStream(t, 30)
	ids := make([]int, 0, len(reqs))
	for _, r := range reqs {
		resp, out := postEmbed(t, ts.URL, EmbedRequest{
			App: r.App, Ingress: r.Ingress, Demand: r.Demand,
			Duration: 10000, Arrive: 0, // effectively never expires
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("embed = %d", resp.StatusCode)
		}
		if out.Accepted {
			ids = append(ids, out.ID)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no request accepted; conservation test needs live embeddings")
	}

	res, err := s.Resize(2)
	if err != nil || res.Shards != 2 || res.Retired != 1 {
		t.Fatalf("shrink: %+v, %v", res, err)
	}
	if got := len(s.routeShards()); got != 2 {
		t.Fatalf("routable shards after shrink = %d, want 2", got)
	}

	// Free capacity total must equal capacity minus what the live
	// embeddings hold, i.e. conservation with actives in place: releasing
	// everything must restore the full capacity vector exactly.
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/embeddings/"+strconv.Itoa(id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d = %d, want 200 (retired shards must serve releases)", id, resp.StatusCode)
		}
	}
	assertVecEqual(t, totalResidual(s), capa, "after shrink and release")

	// Grow 2→4: revives the retired shard, creates one, conserves.
	res, err = s.Resize(4)
	if err != nil || res.Shards != 4 || res.Revived != 1 || res.Created != 1 {
		t.Fatalf("grow: %+v, %v", res, err)
	}
	if got := len(s.routeShards()); got != 4 {
		t.Fatalf("routable shards after grow = %d, want 4", got)
	}
	assertVecEqual(t, totalResidual(s), capa, "after grow")

	// The HTTP surface agrees.
	var sr ResizeResult
	resp2 := postJSON(t, ts.URL+"/v1/admin/resize", map[string]int{"shards": 3})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resize endpoint = %d, want 200", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if sr.Shards != 3 || sr.Retired != 1 {
		t.Fatalf("resize endpoint result = %+v, want 3 shards, 1 retired", sr)
	}
	assertVecEqual(t, totalResidual(s), capa, "after endpoint shrink")
}

// TestConcurrentEmbedsTicksAndResize puts every user of the shard
// engines to work at once, for the race detector: embeds and releases
// from several handlers, departure ticks every few milliseconds in
// real-time mode, and a grow and two shrinks. Once every embedding has
// departed, the shards' free capacity must add up to the substrate's
// again.
func TestConcurrentEmbedsTicksAndResize(t *testing.T) {
	s, ts := testServer(t, Options{Shards: 2, SlotDuration: 5 * time.Millisecond})
	stream := testStream(t, 120)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				er := stream[i]
				er.Duration = 1 + er.Duration%3
				body, _ := json.Marshal(er)
				resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out EmbedResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("embed %d: HTTP %d, %v", i, resp.StatusCode, err)
					return
				}
				if out.Accepted && i%2 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/embeddings/"+strconv.Itoa(out.ID), nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close() // 404 when a departure came first
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{3, 1, 2} {
			if _, err := s.Resize(n); err != nil {
				errs <- fmt.Errorf("resize to %d: %w", n, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var active int64
		for _, ss := range s.Stats().PerShard {
			active += ss.Active
		}
		if active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d embeddings still active long after their last departure slot", active)
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertVecEqual(t, totalResidual(s), capacityVec(s.g), "after every embedding departed")
}
