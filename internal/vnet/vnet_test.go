package vnet

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/olive-vne/olive/internal/graph"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 17)) }

func TestGenerateChainStructure(t *testing.T) {
	p := DefaultParams()
	for seed := uint64(0); seed < 20; seed++ {
		a := GenerateChain("c", p, testRNG(seed))
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid chain: %v", seed, err)
		}
		k := a.FunctionalVNFs()
		if k < p.MinVNFs || k > p.MaxVNFs {
			t.Fatalf("seed %d: chain has %d VNFs, want [%d,%d]", seed, k, p.MinVNFs, p.MaxVNFs)
		}
		// Chain: every link joins consecutive VNFs.
		for i, l := range a.Links {
			if int(l.From) != i || int(l.To) != i+1 {
				t.Fatalf("seed %d: link %d joins %d→%d, want %d→%d", seed, i, l.From, l.To, i, i+1)
			}
		}
	}
}

func TestGenerateTreeHasTwoBranches(t *testing.T) {
	p := DefaultParams()
	for seed := uint64(0); seed < 20; seed++ {
		a := GenerateTree("t", p, testRNG(seed))
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid tree: %v", seed, err)
		}
		// VNF 1 (the fork) must have exactly two children.
		children := 0
		for _, l := range a.Links {
			if l.From == 1 {
				children++
			}
		}
		if children != 2 {
			t.Fatalf("seed %d: fork node has %d children, want 2", seed, children)
		}
	}
}

func TestGenerateAcceleratorShrinksDownstreamLinks(t *testing.T) {
	p := DefaultParams()
	p.SizeStd = 0 // deterministic sizes isolate the reduction effect
	found := false
	for seed := uint64(0); seed < 30; seed++ {
		a := GenerateAccelerator("a", p, testRNG(seed))
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid accelerator: %v", seed, err)
		}
		var small, full int
		for _, l := range a.Links {
			switch {
			case math.Abs(l.Size-p.SizeMean*(1-p.AccelReduction)) < 1e-9:
				small++
			case math.Abs(l.Size-p.SizeMean) < 1e-9:
				full++
			default:
				t.Fatalf("seed %d: link size %g is neither full nor reduced", seed, l.Size)
			}
		}
		if small > 0 && full > 0 {
			found = true
		}
		if small == 0 {
			t.Fatalf("seed %d: no reduced links in accelerator app", seed)
		}
	}
	if !found {
		t.Error("no seed produced a mid-chain accelerator (both full and reduced links)")
	}
}

func TestGenerateGPUMarksExactlyOneVNF(t *testing.T) {
	p := DefaultParams()
	for seed := uint64(0); seed < 20; seed++ {
		a := GenerateGPU("g", p, testRNG(seed))
		var gpus int
		for _, v := range a.VNFs {
			if v.GPU {
				gpus++
			}
		}
		if gpus != 1 {
			t.Fatalf("seed %d: %d GPU VNFs, want 1", seed, gpus)
		}
		if a.VNFs[Root].GPU {
			t.Fatalf("seed %d: root θ marked GPU", seed)
		}
	}
}

func TestDefaultMixComposition(t *testing.T) {
	apps := DefaultMix(DefaultParams(), testRNG(3))
	if len(apps) != 4 {
		t.Fatalf("DefaultMix returned %d apps, want 4", len(apps))
	}
	kinds := map[Kind]int{}
	for _, a := range apps {
		kinds[a.Kind]++
		if err := a.Validate(); err != nil {
			t.Fatalf("app %q invalid: %v", a.Name, err)
		}
	}
	if kinds[KindChain] != 2 || kinds[KindTree] != 1 || kinds[KindAccelerator] != 1 {
		t.Fatalf("mix kinds = %v, want 2 chain / 1 tree / 1 accelerator", kinds)
	}
}

func TestUniformKindSet(t *testing.T) {
	for _, k := range []Kind{KindChain, KindTree, KindAccelerator, KindGPU} {
		apps := UniformKindSet(k, DefaultParams(), testRNG(1))
		if len(apps) != 4 {
			t.Fatalf("%v: got %d apps, want 4", k, len(apps))
		}
		for _, a := range apps {
			if a.Kind != k {
				t.Fatalf("%v: app %q has kind %v", k, a.Name, a.Kind)
			}
		}
	}
}

func TestValidateRejectsMalformedApps(t *testing.T) {
	mk := func(mutate func(*App)) *App {
		a := &App{
			Name: "x", Kind: KindChain,
			VNFs:  []VNF{{ID: 0}, {ID: 1, Size: 10}, {ID: 2, Size: 10}},
			Links: []VLink{{From: 0, To: 1, Size: 5}, {From: 1, To: 2, Size: 5}},
		}
		mutate(a)
		return a
	}
	tests := []struct {
		name   string
		mutate func(*App)
	}{
		{"root with size", func(a *App) { a.VNFs[0].Size = 3 }},
		{"too few VNFs", func(a *App) { a.VNFs = a.VNFs[:1]; a.Links = nil }},
		{"wrong link count", func(a *App) { a.Links = a.Links[:1] }},
		{"cycle", func(a *App) { a.Links[1] = VLink{From: 1, To: 1, Size: 5} }},
		{"orphan parent", func(a *App) { a.Links[0] = VLink{From: 2, To: 1, Size: 5}; a.Links[1] = VLink{From: 1, To: 2, Size: 5} }},
		{"zero link size", func(a *App) { a.Links[0].Size = 0 }},
		{"zero VNF size", func(a *App) { a.VNFs[1].Size = 0 }},
		{"endpoint out of range", func(a *App) { a.Links[1].To = 9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := mk(tt.mutate).Validate(); err == nil {
				t.Fatal("Validate accepted a malformed app")
			}
		})
	}
}

func TestEffGPUExclusions(t *testing.T) {
	gpuVNF := VNF{ID: 1, Size: 10, GPU: true}
	cpuVNF := VNF{ID: 2, Size: 10}
	rootVNF := VNF{ID: Root}
	gpuNode := graph.Node{GPU: true}
	cpuNode := graph.Node{}

	if !math.IsInf(Eff(gpuVNF, cpuNode), 1) {
		t.Error("GPU VNF on CPU node not forbidden")
	}
	if !math.IsInf(Eff(cpuVNF, gpuNode), 1) {
		t.Error("CPU VNF on GPU node not forbidden")
	}
	if Eff(gpuVNF, gpuNode) != 1 || Eff(cpuVNF, cpuNode) != 1 {
		t.Error("matched placements should have η=1")
	}
	if Eff(rootVNF, gpuNode) != 1 {
		t.Error("θ must be placeable anywhere")
	}
}

func TestSizesTruncatedPositive(t *testing.T) {
	p := DefaultParams()
	p.SizeMean = 1 // force frequent truncation
	rng := testRNG(4)
	for i := 0; i < 200; i++ {
		a := GenerateChain("c", p, rng)
		for _, v := range a.VNFs[1:] {
			if v.Size < p.SizeMin {
				t.Fatalf("VNF size %g below minimum %g", v.Size, p.SizeMin)
			}
		}
	}
}

// --- Embedding tests ---

// testSubstrate builds a 4-node line A-B-C-D, generous capacities.
func testSubstrate() *graph.Graph {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Name: string(rune('A' + i)), Tier: graph.TierEdge, Cap: 1000, Cost: float64(i + 1)})
	}
	g.AddLink(0, 1, 500, 1)
	g.AddLink(1, 2, 500, 1)
	g.AddLink(2, 3, 500, 1)
	return g
}

// chainApp builds θ→v1→v2 with fixed sizes.
func chainApp() *App {
	return &App{
		Name: "fixed", Kind: KindChain,
		VNFs:  []VNF{{ID: 0}, {ID: 1, Size: 10}, {ID: 2, Size: 20}},
		Links: []VLink{{From: 0, To: 1, Size: 4}, {From: 1, To: 2, Size: 6}},
	}
}

func mustPath(t *testing.T, g *graph.Graph, from, to graph.NodeID) graph.Path {
	t.Helper()
	lw := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		lw[i] = l.Cost
	}
	p, ok := g.DijkstraLinkWeightsInto(nil, from, lw).PathTo(to)
	if !ok {
		t.Fatalf("no path %d→%d", from, to)
	}
	return p
}

func TestNewEmbeddingUsageAndCost(t *testing.T) {
	g := testSubstrate()
	a := chainApp()
	// θ at A, v1 at B, v2 at D. Paths: A→B (1 link), B→D (2 links).
	nm := []graph.NodeID{0, 1, 3}
	pm := []graph.Path{mustPath(t, g, 0, 1), mustPath(t, g, 1, 3)}
	e, err := NewEmbedding(g, a, nm, pm)
	if err != nil {
		t.Fatalf("NewEmbedding: %v", err)
	}

	want := map[graph.ElementID]float64{
		g.NodeElement(1): 10, // v1 on B
		g.NodeElement(3): 20, // v2 on D
		g.LinkElement(0): 4,  // vlink θ-v1 on A-B
		g.LinkElement(1): 6,  // vlink v1-v2 on B-C
		g.LinkElement(2): 6,  // vlink v1-v2 on C-D
	}
	got := map[graph.ElementID]float64{}
	for _, u := range e.UnitUse() {
		got[u.Elem] = u.Amount
	}
	if len(got) != len(want) {
		t.Fatalf("usage support = %v, want %v", got, want)
	}
	for elem, amt := range want {
		if math.Abs(got[elem]-amt) > 1e-9 {
			t.Errorf("usage[%d] = %g, want %g", elem, got[elem], amt)
		}
	}
	// Cost: v1 on B(cost 2) = 20, v2 on D(cost 4) = 80, links 4+6+6 = 16.
	if math.Abs(e.UnitCost()-116) > 1e-9 {
		t.Errorf("UnitCost = %g, want 116", e.UnitCost())
	}
	if math.Abs(e.Cost(2)-232) > 1e-9 {
		t.Errorf("Cost(2) = %g, want 232", e.Cost(2))
	}
}

func TestNewEmbeddingCollocatedConsumesNoLinks(t *testing.T) {
	g := testSubstrate()
	a := chainApp()
	// All functional VNFs on B; θ at A.
	nm := []graph.NodeID{0, 1, 1}
	pm := []graph.Path{mustPath(t, g, 0, 1), {Nodes: []graph.NodeID{1}}}
	e, err := NewEmbedding(g, a, nm, pm)
	if err != nil {
		t.Fatalf("NewEmbedding: %v", err)
	}
	if !e.Collocated() {
		t.Error("Collocated() = false for collocated embedding")
	}
	for _, u := range e.UnitUse() {
		if l, isLink := g.ElementLink(u.Elem); isLink && l != 0 {
			t.Errorf("collocated embedding consumes link %d", l)
		}
	}
}

func TestNewEmbeddingErrors(t *testing.T) {
	g := testSubstrate()
	a := chainApp()
	okPath := mustPath(t, g, 0, 1)
	selfPath := graph.Path{Nodes: []graph.NodeID{1}}

	tests := []struct {
		name string
		nm   []graph.NodeID
		pm   []graph.Path
	}{
		{"wrong node arity", []graph.NodeID{0, 1}, []graph.Path{okPath, selfPath}},
		{"wrong path arity", []graph.NodeID{0, 1, 1}, []graph.Path{okPath}},
		{"empty path, split endpoints", []graph.NodeID{0, 1, 2}, []graph.Path{okPath, selfPath}},
		{"path endpoints mismatch", []graph.NodeID{0, 1, 3}, []graph.Path{okPath, mustPath(t, g, 1, 2)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewEmbedding(g, a, tt.nm, tt.pm); err == nil {
				t.Fatal("NewEmbedding accepted invalid mapping")
			}
		})
	}
}

func TestNewEmbeddingForbidsGPUMismatch(t *testing.T) {
	g := testSubstrate()
	a := chainApp()
	a.VNFs[1].GPU = true // node B is not GPU
	nm := []graph.NodeID{0, 1, 1}
	pm := []graph.Path{mustPath(t, g, 0, 1), {Nodes: []graph.NodeID{1}}}
	if _, err := NewEmbedding(g, a, nm, pm); err == nil {
		t.Fatal("embedding of GPU VNF on non-GPU node accepted")
	}
}

func TestFitsApplyRelease(t *testing.T) {
	g := testSubstrate()
	a := chainApp()
	nm := []graph.NodeID{0, 1, 1}
	pm := []graph.Path{mustPath(t, g, 0, 1), {Nodes: []graph.NodeID{1}}}
	e, err := NewEmbedding(g, a, nm, pm)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Capacities()
	orig := append([]float64(nil), res...)

	// Node B holds 30 CU per unit demand → capacity 1000 fits d≈33.3.
	if !e.FitsResidual(res, 33) {
		t.Error("demand 33 should fit")
	}
	if e.FitsResidual(res, 34) {
		t.Error("demand 34 should not fit")
	}

	e.Apply(res, 10)
	if got := res[g.NodeElement(1)]; math.Abs(got-700) > 1e-9 {
		t.Errorf("after Apply(10): node B residual = %g, want 700", got)
	}
	e.Release(res, 10)
	for i := range res {
		if math.Abs(res[i]-orig[i]) > 1e-9 {
			t.Fatalf("Release did not restore element %d: %g vs %g", i, res[i], orig[i])
		}
	}
}

// Property: Apply then Release restores any residual vector, for random
// demands. (testing/quick over the demand value.)
func TestApplyReleaseRoundTripProperty(t *testing.T) {
	g := testSubstrate()
	a := chainApp()
	nm := []graph.NodeID{0, 1, 3}
	pm := []graph.Path{mustPath(t, g, 0, 1), mustPath(t, g, 1, 3)}
	e, err := NewEmbedding(g, a, nm, pm)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dRaw uint16) bool {
		d := float64(dRaw) / 100
		res := g.Capacities()
		orig := append([]float64(nil), res...)
		e.Apply(res, d)
		e.Release(res, d)
		for i := range res {
			if math.Abs(res[i]-orig[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for random generated apps, total sizes are positive and
// Validate passes.
func TestGeneratedAppsAlwaysValidProperty(t *testing.T) {
	p := DefaultParams()
	f := func(seed uint64, kindRaw uint8) bool {
		kind := Kind(kindRaw%4) + KindChain
		a := Generate(kind, "prop", p, testRNG(seed))
		return a.Validate() == nil && a.TotalNodeSize() > 0 && a.TotalLinkSize() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindChain: "Chain", KindTree: "Tree", KindAccelerator: "Acc", KindGPU: "GPU", Kind(99): "Kind(99)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
