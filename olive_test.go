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

func TestPublicAPIExactAndCollocatedEmbedding(t *testing.T) {
	g := olive.BuildTopology(olive.TopoCittaStudi, 2)
	rng := rand.New(rand.NewPCG(9, 9))
	app := olive.GenerateApp(olive.KindChain, "c", olive.DefaultAppParams(), rng)
	ingress := g.EdgeNodes()[0]

	exact, exactCost, ok := olive.MinCostEmbedding(g, app, ingress)
	if !ok {
		t.Fatal("no exact embedding")
	}
	colo, coloCost, ok := olive.BestCollocatedEmbedding(g, app, ingress, nil, 1)
	if !ok {
		t.Fatal("no collocated embedding")
	}
	if exactCost > coloCost+1e-9 {
		t.Fatalf("exact cost %g worse than collocated %g", exactCost, coloCost)
	}
	if exact.App != app || colo.App != app {
		t.Fatal("embeddings reference wrong app")
	}
	// An ingress that is not a substrate node is "no embedding", not a panic.
	for _, bad := range []olive.NodeID{olive.NodeID(g.NumNodes()), -1} {
		if _, _, ok := olive.MinCostEmbedding(g, app, bad); ok {
			t.Fatalf("MinCostEmbedding accepted ingress %d", bad)
		}
		if _, _, ok := olive.BestCollocatedEmbedding(g, app, bad, nil, 1); ok {
			t.Fatalf("BestCollocatedEmbedding accepted ingress %d", bad)
		}
	}
}

// TestBestCollocatedEmbeddingRejectsBadInputs: a residual vector shorter
// than the substrate's element vector, and a NaN or negative demand, are
// "no embedding" — not an index panic, and not a fit everywhere.
func TestBestCollocatedEmbeddingRejectsBadInputs(t *testing.T) {
	g := olive.BuildTopology(olive.TopoIris, 1)
	rng := rand.New(rand.NewPCG(9, 9))
	app := olive.GenerateApp(olive.KindChain, "c", olive.DefaultAppParams(), rng)
	ingress := g.EdgeNodes()[0]
	res := make([]float64, g.NumElements())
	for i := range res {
		res[i] = 1e6
	}
	for _, c := range []struct {
		name string
		res  []float64
		d    float64
		ok   bool
	}{
		{"nil res", nil, 1, true},
		{"full res", res, 1, true},
		{"zero demand", res, 0, true},
		{"one-entry res", []float64{1}, 1, false},
		{"res one short", res[:len(res)-1], 1, false},
		{"empty res", []float64{}, 1, false},
		{"NaN demand", res, math.NaN(), false},
		{"NaN demand, nil res", nil, math.NaN(), false},
		{"negative demand", res, -5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, _, ok := olive.BestCollocatedEmbedding(g, app, ingress, c.res, c.d)
			if ok != c.ok || (e != nil) != c.ok {
				t.Fatalf("ok = %v (embedding %v), want %v", ok, e != nil, c.ok)
			}
		})
	}
}

func TestPublicAPISlotOff(t *testing.T) {
	g := olive.BuildTopology(olive.TopoCittaStudi, 3)
	rng := rand.New(rand.NewPCG(11, 11))
	apps := olive.DefaultAppMix(rng)
	so, err := olive.NewSlotOff(g, apps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := so.Step(0, []olive.Request{
		{ID: 0, App: 0, Ingress: g.EdgeNodes()[0], Demand: 5, Arrive: 0, Duration: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AcceptedNew) != 1 {
		t.Fatalf("SLOTOFF rejected a trivial request: %+v", res)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	cfg := olive.QuickSimConfig(olive.TopoCittaStudi, 1.0, 4)
	cfg.HistSlots, cfg.OnlineSlots = 100, 30
	cfg.MeasureFrom, cfg.MeasureTo = 5, 25
	cfg.Algorithms = []olive.Algorithm{olive.OLIVE, olive.QUICKG}
	rr, err := olive.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Results[olive.OLIVE] == nil || rr.Results[olive.QUICKG] == nil {
		t.Fatal("missing results")
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
	if _, ok := olive.FindNode(g, "Franklin"); !ok {
		t.Fatal("Franklin missing from Iris")
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	g := olive.BuildTopology(olive.TopoCittaStudi, 8)
	rng := rand.New(rand.NewPCG(8, 8))
	apps := olive.DefaultAppMix(rng)
	wp := olive.DefaultWorkload().WithUtilization(1.0)
	wp.Slots = 100
	wp.LambdaPerNode = 2
	trace, err := olive.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	if err := olive.SaveTrace(&tbuf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := olive.LoadTrace(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(trace.Requests) {
		t.Fatal("trace round trip lost requests")
	}

	popts := olive.DefaultPlanOptions()
	popts.BootstrapB = 20
	p, err := olive.BuildPlan(g, apps, trace, popts, rng)
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := olive.SavePlan(&pbuf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := olive.LoadPlan(&pbuf, g, apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Classes) != len(p.Classes) {
		t.Fatal("plan round trip lost classes")
	}
	// A loaded plan drives an engine directly.
	eng, err := olive.NewEngine(g, apps, olive.EngineOptions{Plan: p2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Algorithm() != olive.OLIVE {
		t.Fatal("loaded plan did not activate OLIVE mode")
	}
}

func TestPublicAPIWindowedPlan(t *testing.T) {
	g := olive.BuildTopology(olive.TopoCittaStudi, 9)
	rng := rand.New(rand.NewPCG(9, 9))
	apps := olive.DefaultAppMix(rng)
	wp := olive.DefaultWorkload().WithUtilization(1.0)
	wp.Slots = 160
	wp.LambdaPerNode = 2
	cp := olive.DefaultCAIDAParams()
	cp.DiurnalPeriod = 80
	trace, err := olive.GenerateCAIDA(g, wp, cp, rng)
	if err != nil {
		t.Fatal(err)
	}
	popts := olive.DefaultPlanOptions()
	popts.BootstrapB = 20
	w, err := olive.BuildWindowedPlan(g, apps, trace, 80, 4, popts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w.Windows() != 4 {
		t.Fatalf("windows = %d", w.Windows())
	}
	eng, err := olive.NewEngine(g, apps, olive.EngineOptions{Plan: w.At(0)})
	if err != nil {
		t.Fatal(err)
	}
	eng.StartSlot(0)
	eng.SwapPlan(w.At(25))
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIScenarios(t *testing.T) {
	names := olive.ScenarioNames()
	if len(names) < 13 {
		t.Fatalf("only %d registered scenarios: %v", len(names), names)
	}
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
		Base: olive.ScenarioPatch{Topology: "cittastudi"},
		Reports: []olive.ScenarioReport{{
			Title:     "t",
			RowHeader: "cell",
			Columns:   []olive.ScenarioColumn{{Header: "OLIVE", Metric: "rejection", Algo: "OLIVE"}},
		}},
	}
	var buf bytes.Buffer
	if err := olive.SaveScenario(&buf, custom); err != nil {
		t.Fatal(err)
	}
	loaded, err := olive.LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != custom.Hash() {
		t.Fatal("public JSON round trip changed the spec hash")
	}
	if err := olive.RegisterScenario(loaded); err != nil {
		t.Fatal(err)
	}
	if err := olive.RegisterScenario(loaded); err == nil {
		t.Fatal("duplicate public registration accepted")
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

	body, _ := json.Marshal(olive.ServeEmbedRequest{App: 0, Ingress: 0, Demand: 1, Duration: 5})
	resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out olive.ServeEmbedResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("embed = %d accepted=%v, want 200 accepted", resp.StatusCode, out.Accepted)
	}

	var st olive.ServerStats
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
