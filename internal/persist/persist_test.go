package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 55)) }

func TestPlanRoundTrip(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	rng := testRNG(3)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.2)
	wp.Slots = 120
	wp.LambdaPerNode = 3
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := plan.DefaultOptions()
	opts.BootstrapB = 20
	p, err := plan.BuildFromHistory(g, apps, hist, opts, rng)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SavePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(&buf, g, apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Classes) != len(p.Classes) {
		t.Fatalf("class count %d vs %d", len(got.Classes), len(p.Classes))
	}
	if err := got.Validate(g); err != nil {
		t.Fatalf("loaded plan invalid: %v", err)
	}
	for i := range p.Classes {
		want, have := p.Classes[i], got.Classes[i]
		if want.Class != have.Class || math.Abs(want.Rejected-have.Rejected) > 1e-12 {
			t.Fatalf("class %d differs: %+v vs %+v", i, have.Class, want.Class)
		}
		if len(want.Shares) != len(have.Shares) {
			t.Fatalf("class %d share count %d vs %d", i, len(have.Shares), len(want.Shares))
		}
		for j := range want.Shares {
			if math.Abs(want.Shares[j].Fraction-have.Shares[j].Fraction) > 1e-12 {
				t.Fatalf("class %d share %d fraction differs", i, j)
			}
			// Costs recomputed on load must match exactly (same
			// substrate, same mapping).
			if math.Abs(want.Shares[j].E.UnitCost()-have.Shares[j].E.UnitCost()) > 1e-9 {
				t.Fatalf("class %d share %d unit cost %g vs %g",
					i, j, have.Shares[j].E.UnitCost(), want.Shares[j].E.UnitCost())
			}
		}
		// Lookup still works.
		if got.Lookup(want.Class.App, want.Class.Ingress) == nil {
			t.Fatalf("loaded plan cannot look up class %d", i)
		}
	}
}

func TestLoadPlanRejectsMismatchedApps(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	rng := testRNG(4)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.0)
	wp.Slots = 100
	wp.LambdaPerNode = 2
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := plan.DefaultOptions()
	opts.BootstrapB = 20
	p, err := plan.BuildFromHistory(g, apps, hist, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	// Loading against a different application set must fail validation
	// (different VNF/link arity with overwhelming probability).
	other := vnet.DefaultMix(vnet.DefaultParams(), testRNG(999))
	if _, err := LoadPlan(bytes.NewReader(buf.Bytes()), g, other[:1]); err == nil {
		t.Error("plan loaded against a 1-app set")
	}
}

// TestLoadPlanRejectsBadInput: a plan file that cannot be right is an
// error, not a plan. Beside undecodable input, a wrong version and an
// unknown app, that covers a class whose ingress is not a substrate node
// (an engine indexes its class table with it), whose demand is not
// positive, or whose share keeps θ off the class ingress — a saved plan
// with one class's ingress edited — and saved plans that plan.Validate
// rejects: one share's fraction or one class's rejected share edited out
// of [0,1].
func TestLoadPlanRejectsBadInput(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), testRNG(5))
	if err := SavePlan(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil plan accepted")
	}
	cases := []struct{ name, file string }{
		{"garbage", "nope"},
		{"wrong version", `{"version":2}`},
		{"out-of-range app", `{"version":1,"classes":[{"app":77}]}`},
		{"ingress past the substrate", `{"version":1,"classes":[{"app":0,"ingress":999999,"demand":1}]}`},
		{"negative ingress", `{"version":1,"classes":[{"app":0,"ingress":-4,"demand":1}]}`},
		{"negative demand", `{"version":1,"classes":[{"app":0,"ingress":0,"demand":-7}]}`},
		{"zero demand", `{"version":1,"classes":[{"app":0,"ingress":0,"demand":0}]}`},
		{"share θ off the class ingress", editedPlan(t, g, apps, func(c *classRec) {
			c.Ingress = (c.Ingress + 1) % graph.NodeID(g.NumNodes())
		})},
		{"share fraction −3", editedPlan(t, g, apps, func(c *classRec) { c.Shares[0].Fraction = -3 })},
		{"share fraction 5", editedPlan(t, g, apps, func(c *classRec) { c.Shares[0].Fraction = 5 })},
		{"share fraction 1e300", editedPlan(t, g, apps, func(c *classRec) { c.Shares[0].Fraction = 1e300 })},
		{"rejected share −5", editedPlan(t, g, apps, func(c *classRec) { c.Rejected = -5 })},
	}
	for _, c := range cases {
		if _, err := LoadPlan(strings.NewReader(c.file), g, apps); err == nil {
			t.Errorf("%s: plan accepted", c.name)
		}
	}
}

// editedPlan returns a valid saved plan over g with edit applied to the
// first class that has a share.
func editedPlan(t *testing.T, g *graph.Graph, apps []*vnet.App, edit func(*classRec)) string {
	t.Helper()
	rng := testRNG(6)
	wp := workload.DefaultParams()
	wp.Slots = 60
	wp.LambdaPerNode = 2
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := plan.DefaultOptions()
	opts.BootstrapB = 20
	p, err := plan.BuildFromHistory(g, apps, hist, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(bytes.NewReader(buf.Bytes()), g, apps); err != nil {
		t.Fatalf("the unedited plan does not load: %v", err)
	}
	var f planFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	for i := range f.Classes {
		c := &f.Classes[i]
		if len(c.Shares) > 0 {
			edit(c)
			out, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
	}
	t.Fatal("the plan has no class with a share")
	return ""
}
