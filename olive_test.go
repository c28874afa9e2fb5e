package olive_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	olive "github.com/olive-vne/olive"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow through
// the facade only.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := olive.BuildTopology(olive.TopoCittaStudi, 1)
	if g.NumNodes() != 30 || g.NumLinks() != 35 {
		t.Fatalf("topology size %d/%d, want 30/35", g.NumNodes(), g.NumLinks())
	}
	rng := rand.New(rand.NewPCG(7, 7))
	apps := olive.DefaultAppMix(rng)
	if len(apps) != 4 {
		t.Fatalf("app mix size %d, want 4", len(apps))
	}

	wp := olive.DefaultWorkload().WithUtilization(1.0)
	wp.Slots = 150
	trace, err := olive.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	hist, online, err := trace.Split(110)
	if err != nil {
		t.Fatal(err)
	}

	popts := olive.DefaultPlanOptions()
	popts.BootstrapB = 20
	p, err := olive.BuildPlan(g, apps, hist, popts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Fatal("empty plan")
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}

	eng, err := olive.NewEngine(g, apps, olive.EngineOptions{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Algorithm() != olive.OLIVE {
		t.Fatalf("engine algorithm %v, want OLIVE", eng.Algorithm())
	}
	var accepted, total int
	for ts, slot := range online.PerSlot() {
		eng.StartSlot(ts)
		for _, r := range slot {
			out, err := eng.Process(r)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if out.Accepted {
				accepted++
			}
		}
	}
	if total == 0 || accepted == 0 {
		t.Fatalf("accepted %d of %d requests", accepted, total)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIMinCostEmbedding: the exact oracle's embedding matches its
// reported cost, and an ingress that is not a substrate node is "no
// embedding", not a panic.
func TestPublicAPIMinCostEmbedding(t *testing.T) {
	g := olive.BuildTopology(olive.TopoCittaStudi, 2)
	rng := rand.New(rand.NewPCG(9, 9))
	app := olive.GenerateApp(olive.KindChain, "c", olive.DefaultAppParams(), rng)
	ingress := g.EdgeNodes()[0]

	exact, exactCost, ok := olive.MinCostEmbedding(g, app, ingress)
	if !ok {
		t.Fatal("no exact embedding")
	}
	if exact.App != app || exact.NodeMap[0] != ingress {
		t.Fatal("embedding references wrong app or ingress")
	}
	if math.Abs(exact.UnitCost()-exactCost) > 1e-9 {
		t.Fatalf("embedding cost %g, reported %g", exact.UnitCost(), exactCost)
	}
	for _, bad := range []olive.NodeID{olive.NodeID(g.NumNodes()), -1} {
		if _, _, ok := olive.MinCostEmbedding(g, app, bad); ok {
			t.Fatalf("MinCostEmbedding accepted ingress %d", bad)
		}
	}
}

// TestPublicAPISimulation runs the documented sweep flow on one small
// cell: DefaultSimConfig, scaled down, repeated through RunSweep.
func TestPublicAPISimulation(t *testing.T) {
	cfg := olive.DefaultSimConfig(olive.TopoCittaStudi, 1.0, 4)
	cfg.HistSlots, cfg.OnlineSlots = 100, 30
	cfg.LambdaPerNode = 3
	cfg.PlanOptions.BootstrapB = 30
	cfg.MeasureFrom, cfg.MeasureTo = 5, 25
	cfg.Algorithms = []olive.Algorithm{olive.OLIVE, olive.QUICKG}
	res, err := olive.RunSweep([]olive.SweepCell{{Config: cfg, Reps: 2}}, olive.RunnerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Reps != 2 {
		t.Fatalf("sweep returned %d cells", len(res))
	}
	for _, a := range cfg.Algorithms {
		rej, ok := res[0].Rejection[a]
		if !ok {
			t.Fatalf("no rejection summary for %v", a)
		}
		if rej.Mean >= 1 {
			t.Fatalf("%v rejected every request", a)
		}
	}
}

// TestPublicAPISlotOff: SLOTOFF is reachable through the facade only as a
// sweep algorithm; on a lightly loaded cell it must accept requests.
func TestPublicAPISlotOff(t *testing.T) {
	cfg := olive.DefaultSimConfig(olive.TopoCittaStudi, 0.5, 11)
	cfg.HistSlots, cfg.OnlineSlots = 100, 30
	cfg.LambdaPerNode = 3
	cfg.PlanOptions.BootstrapB = 30
	cfg.MeasureFrom, cfg.MeasureTo = 5, 25
	cfg.Algorithms = []olive.Algorithm{olive.SLOTOFF}
	res, err := olive.RunSweep([]olive.SweepCell{{Config: cfg, Reps: 1}}, olive.RunnerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("sweep returned %d cells", len(res))
	}
	rej, ok := res[0].Rejection[olive.SLOTOFF]
	if !ok {
		t.Fatal("no rejection summary for SLOTOFF")
	}
	if !(rej.Mean < 1) {
		t.Fatalf("SLOTOFF rejected every request: %+v", rej)
	}
	if cost := res[0].Cost[olive.SLOTOFF]; !(cost.Mean > 0) {
		t.Fatalf("SLOTOFF embedded nothing: cost %+v", cost)
	}
}

func TestPublicAPIGPUVariant(t *testing.T) {
	g := olive.BuildTopology(olive.TopoIris, 5)
	v := olive.MakeGPUVariant(g, 4, 5)
	var gpus int
	for _, n := range v.Nodes() {
		if n.GPU {
			gpus++
		}
	}
	if gpus == 0 {
		t.Fatal("no GPU datacenters in variant")
	}
}

func TestPublicAPIScenarios(t *testing.T) {
	sp, ok := olive.LookupScenario("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	tbls, err := olive.RunScenario(sp, olive.SmokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls) != 1 || len(tbls[0].Rows) != 4 {
		t.Fatalf("table2 rendered wrong: %+v", tbls)
	}

	// Round-trip a custom spec through the public JSON surface.
	custom := &olive.Scenario{
		Name: "public-api-micro",
		Base: olive.ScenarioPatch(`{"topology":"cittastudi"}`),
		Reports: []olive.ScenarioReport{{
			Title:     "t",
			RowHeader: "cell",
			Columns:   []olive.ScenarioColumn{{Header: "OLIVE", Metric: "rejection", Algo: "OLIVE"}},
		}},
	}
	buf, err := json.Marshal(custom)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := olive.LoadScenario(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != custom.Hash() {
		t.Fatal("public JSON round trip changed the spec hash")
	}
}

// TestPublicAPIServer exercises the online serving surface: accept a
// request over HTTP, read stats, drain gracefully.
func TestPublicAPIServer(t *testing.T) {
	g := olive.BuildTopology(olive.TopoIris, 1)
	apps := olive.DefaultAppMix(rand.New(rand.NewPCG(7, 7)))
	s, err := olive.NewServer(g, apps, olive.ServerOptions{Shards: 2, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := []byte(`{"app": 0, "ingress": 0, "demand": 1, "duration": 5}`)
	resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("embed = %d accepted=%v, want 200 accepted", resp.StatusCode, out.Accepted)
	}

	var st struct {
		Shards   int `json:"shards"`
		Requests struct {
			Total    int64 `json:"total"`
			Accepted int64 `json:"accepted"`
		} `json:"requests"`
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Requests.Total != 1 || st.Requests.Accepted != 1 || st.Shards != 2 {
		t.Fatalf("stats = %+v, want 1 processed 1 accepted over 2 shards", st.Requests)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
