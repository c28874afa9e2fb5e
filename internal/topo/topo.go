// Package topo constructs the physical substrate topologies of the paper's
// evaluation (§IV-A, Table II, Fig. 5): Iris, Città Studi, 5GEN and the
// 100N150E Erdős–Rényi random graph — plus the capacity/cost model shared
// by all of them.
//
// The original graphs (Internet Topology Zoo, the 5GEN Madrid deployment,
// the Città Studi edge network) are not redistributable and unavailable
// offline, so each generator synthesizes a connected three-tier network
// with the exact node and link counts of Table II, the 3× inter-tier
// capacity ratios, and the cost distribution of the paper (node costs
// uniform in [50%, 150%] of the tier mean; link cost 1 per CU). DESIGN.md
// §3 documents this substitution.
package topo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"

	"github.com/olive-vne/olive/internal/graph"
)

// Table II capacity and cost constants (capacity units, CU).
const (
	EdgeNodeCap      = 200_000
	TransportNodeCap = 600_000
	CoreNodeCap      = 1_800_000

	EdgeLinkCap      = 100_000
	TransportLinkCap = 300_000
	CoreLinkCap      = 900_000

	EdgeNodeCostMean      = 50.0
	TransportNodeCostMean = 10.0
	CoreNodeCostMean      = 1.0

	LinkCost = 1.0
)

// Name identifies one of the four evaluation topologies.
type Name string

// The four physical topologies of Table II.
const (
	Iris       Name = "iris"
	CittaStudi Name = "cittastudi"
	FiveGEN    Name = "5gen"
	Random100  Name = "100n150e"
)

// All lists the four evaluation topologies in Table II order.
func All() []Name { return []Name{Iris, CittaStudi, FiveGEN, Random100} }

// UnmarshalText parses a topology name, failing with the valid names.
func (n *Name) UnmarshalText(b []byte) error {
	if !slices.Contains(All(), Name(b)) {
		names := make([]string, len(All()))
		for i, t := range All() {
			names[i] = string(t)
		}
		return fmt.Errorf("unknown topology %q (valid: %s)", b, strings.Join(names, ", "))
	}
	*n = Name(b)
	return nil
}

// Spec describes a topology's size and tier composition.
type Spec struct {
	Name        Name
	Nodes       int
	Links       int
	EdgeN       int // number of edge-tier nodes
	TransportN  int // number of transport-tier nodes
	CoreN       int // number of core-tier nodes
	Description string
}

// Specs returns the per-topology size specifications matching Table II.
// Tier splits follow the paper's three-tier mobile access layout with the
// bulk of nodes at the edge.
func Specs() map[Name]Spec {
	return map[Name]Spec{
		Iris:       {Name: Iris, Nodes: 50, Links: 64, EdgeN: 30, TransportN: 15, CoreN: 5, Description: "Topology Zoo 'Iris' scale (50N/64L)"},
		CittaStudi: {Name: CittaStudi, Nodes: 30, Links: 35, EdgeN: 18, TransportN: 9, CoreN: 3, Description: "Città Studi edge network scale (30N/35L)"},
		FiveGEN:    {Name: FiveGEN, Nodes: 78, Links: 100, EdgeN: 48, TransportN: 24, CoreN: 6, Description: "5GEN Madrid 5G deployment scale (78N/100L)"},
		Random100:  {Name: Random100, Nodes: 100, Links: 150, EdgeN: 60, TransportN: 30, CoreN: 10, Description: "Connected Erdős–Rényi random graph (100N/150L)"},
	}
}

// Build constructs the named topology deterministically from seed.
func Build(name Name, seed uint64) (*graph.Graph, error) {
	spec, ok := Specs()[name]
	if !ok {
		return nil, fmt.Errorf("topo: unknown topology %q", name)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(len(spec.Name))*0x9e3779b9))
	var g *graph.Graph
	if name == Random100 {
		g = buildErdosRenyi(spec, rng)
	} else {
		g = buildHierarchical(spec, rng)
	}
	assignCosts(g, rng)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topo: generated %q invalid: %w", name, err)
	}
	if g.NumNodes() != spec.Nodes || g.NumLinks() != spec.Links {
		return nil, fmt.Errorf("topo: %q generated %dN/%dL, want %dN/%dL",
			name, g.NumNodes(), g.NumLinks(), spec.Nodes, spec.Links)
	}
	return g, nil
}

// MustBuild is Build for tests and examples where the spec is known valid.
func MustBuild(name Name, seed uint64) *graph.Graph {
	g, err := Build(name, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// edgeNodeNames supplies human-readable edge datacenter names. "Franklin"
// is always present: Fig. 12 of the paper zooms into the Franklin node of
// Iris. Names repeat with numeric suffixes when a topology has more edge
// nodes than the base list.
var edgeNodeNames = []string{
	"Franklin", "Arlington", "Clinton", "Salem", "Georgetown", "Fairview",
	"Madison", "Washington", "Chester", "Greenville", "Springfield",
	"Dayton", "Lexington", "Milton", "Newport", "Oxford", "Burlington",
	"Ashland", "Dover", "Hudson", "Kingston", "Riverside", "Auburn",
	"Bristol", "Clayton", "Dallas", "Florence", "Jackson", "Manchester",
	"Oakland",
}

func nodeName(tier graph.Tier, idx int) string {
	switch tier {
	case graph.TierEdge:
		if idx < len(edgeNodeNames) {
			return edgeNodeNames[idx]
		}
		return fmt.Sprintf("%s-%d", edgeNodeNames[idx%len(edgeNodeNames)], idx/len(edgeNodeNames)+1)
	case graph.TierTransport:
		return fmt.Sprintf("transport-%d", idx)
	default:
		return fmt.Sprintf("core-%d", idx)
	}
}

func tierNodeCap(t graph.Tier) float64 {
	switch t {
	case graph.TierEdge:
		return EdgeNodeCap
	case graph.TierTransport:
		return TransportNodeCap
	default:
		return CoreNodeCap
	}
}

// linkTier classifies a link by the lower tier of its endpoints: an
// edge–transport link is an edge link, transport–core is a transport link.
func linkTier(a, b graph.Tier) graph.Tier {
	if a < b {
		return a
	}
	return b
}

func tierLinkCap(t graph.Tier) float64 {
	switch t {
	case graph.TierEdge:
		return EdgeLinkCap
	case graph.TierTransport:
		return TransportLinkCap
	default:
		return CoreLinkCap
	}
}

func tierNodeCostMean(t graph.Tier) float64 {
	switch t {
	case graph.TierEdge:
		return EdgeNodeCostMean
	case graph.TierTransport:
		return TransportNodeCostMean
	default:
		return CoreNodeCostMean
	}
}

// addTierLink inserts a link with the capacity of the endpoints' link tier.
func addTierLink(g *graph.Graph, a, b graph.NodeID) {
	t := linkTier(g.Node(a).Tier, g.Node(b).Tier)
	g.AddLink(a, b, tierLinkCap(t), LinkCost)
}

// buildHierarchical synthesizes a three-tier access network: a core ring,
// transports dual-homed to cores, edges homed to transports, and extra
// cross links drawn at random until the target link count is met.
func buildHierarchical(spec Spec, rng *rand.Rand) *graph.Graph {
	g := graph.New()
	var cores, transports, edges []graph.NodeID
	for i := 0; i < spec.CoreN; i++ {
		cores = append(cores, g.AddNode(graph.Node{
			Name: nodeName(graph.TierCore, i), Tier: graph.TierCore, Cap: CoreNodeCap,
		}))
	}
	for i := 0; i < spec.TransportN; i++ {
		transports = append(transports, g.AddNode(graph.Node{
			Name: nodeName(graph.TierTransport, i), Tier: graph.TierTransport, Cap: TransportNodeCap,
		}))
	}
	for i := 0; i < spec.EdgeN; i++ {
		edges = append(edges, g.AddNode(graph.Node{
			Name: nodeName(graph.TierEdge, i), Tier: graph.TierEdge, Cap: EdgeNodeCap,
		}))
	}

	// Core ring (or single link for 2 cores).
	for i := range cores {
		if len(cores) == 1 {
			break
		}
		j := (i + 1) % len(cores)
		if len(cores) == 2 && i == 1 {
			break
		}
		addTierLink(g, cores[i], cores[j])
	}
	// Each transport homes to one core (round-robin with jitter).
	for i, tn := range transports {
		c := cores[(i+rng.IntN(len(cores)))%len(cores)]
		addTierLink(g, tn, c)
	}
	// Each edge homes to one transport.
	for i, en := range edges {
		tn := transports[(i+rng.IntN(len(transports)))%len(transports)]
		addTierLink(g, en, tn)
	}

	// Top up with random extra links until the target count: prefer
	// edge–transport and transport–transport redundancy, as in access
	// networks.
	for g.NumLinks() < spec.Links {
		var a, b graph.NodeID
		switch rng.IntN(3) {
		case 0: // extra edge uplink
			a = edges[rng.IntN(len(edges))]
			b = transports[rng.IntN(len(transports))]
		case 1: // transport ring/mesh
			a = transports[rng.IntN(len(transports))]
			b = transports[rng.IntN(len(transports))]
		default: // extra transport-core uplink
			a = transports[rng.IntN(len(transports))]
			b = cores[rng.IntN(len(cores))]
		}
		if a == b || haveLink(g, a, b) {
			continue
		}
		addTierLink(g, a, b)
	}
	layoutTiers(g, rng)
	return g
}

// buildErdosRenyi synthesizes the 100N150E connected random graph: a
// uniform random spanning tree plus uniform random extra links, with tiers
// assigned by the spec's proportions.
func buildErdosRenyi(spec Spec, rng *rand.Rand) *graph.Graph {
	g := graph.New()
	tiers := make([]graph.Tier, 0, spec.Nodes)
	for i := 0; i < spec.CoreN; i++ {
		tiers = append(tiers, graph.TierCore)
	}
	for i := 0; i < spec.TransportN; i++ {
		tiers = append(tiers, graph.TierTransport)
	}
	for i := 0; i < spec.EdgeN; i++ {
		tiers = append(tiers, graph.TierEdge)
	}
	rng.Shuffle(len(tiers), func(i, j int) { tiers[i], tiers[j] = tiers[j], tiers[i] })
	counts := map[graph.Tier]int{}
	for _, t := range tiers {
		g.AddNode(graph.Node{Name: nodeName(t, counts[t]), Tier: t, Cap: tierNodeCap(t)})
		counts[t]++
	}
	// Random spanning tree: attach each node i>0 to a uniformly random
	// earlier node (random recursive tree — connected by construction).
	for i := 1; i < spec.Nodes; i++ {
		j := rng.IntN(i)
		addTierLink(g, graph.NodeID(i), graph.NodeID(j))
	}
	for g.NumLinks() < spec.Links {
		a := graph.NodeID(rng.IntN(spec.Nodes))
		b := graph.NodeID(rng.IntN(spec.Nodes))
		if a == b || haveLink(g, a, b) {
			continue
		}
		addTierLink(g, a, b)
	}
	layoutTiers(g, rng)
	return g
}

func haveLink(g *graph.Graph, a, b graph.NodeID) bool {
	for _, lid := range g.Incident(a) {
		if g.Link(lid).Other(a) == b {
			return true
		}
	}
	return false
}

// assignCosts draws node costs uniformly in [0.5, 1.5]× the tier mean and
// sets every link cost to LinkCost, per §IV-A.
func assignCosts(g *graph.Graph, rng *rand.Rand) {
	for _, n := range g.Nodes() {
		mean := tierNodeCostMean(n.Tier)
		g.SetNodeCost(n.ID, mean*(0.5+rng.Float64()))
	}
}

// layoutTiers assigns simple concentric layout coordinates (core at the
// center) for rendering by cmd/topogen. Purely cosmetic.
func layoutTiers(g *graph.Graph, rng *rand.Rand) {
	radius := map[graph.Tier]float64{graph.TierCore: 1, graph.TierTransport: 2.5, graph.TierEdge: 4}
	idx := map[graph.Tier]int{}
	total := map[graph.Tier]int{}
	for _, n := range g.Nodes() {
		total[n.Tier]++
	}
	for _, n := range g.Nodes() {
		k := idx[n.Tier]
		idx[n.Tier]++
		frac := float64(k) / float64(total[n.Tier])
		angle := frac*6.283185307179586 + rng.Float64()*0.05
		r := radius[n.Tier]
		nn := g.Nodes()[n.ID]
		nn.X = r * math.Cos(angle)
		nn.Y = r * math.Sin(angle)
		g.Nodes()[n.ID] = nn
	}
}

// MakeGPUVariant returns a copy of g adapted for the GPU scenario of
// Fig. 10: all core nodes and gpuEdge random edge nodes are marked as
// dedicated GPU datacenters, and every non-GPU datacenter loses 25% of its
// capacity.
func MakeGPUVariant(g *graph.Graph, gpuEdge int, seed uint64) *graph.Graph {
	out := g.Clone()
	rng := rand.New(rand.NewPCG(seed, 0x6770755f)) // "gpu_" tag distinguishes this stream
	for _, n := range out.Nodes() {
		if n.Tier == graph.TierCore {
			out.SetNodeGPU(n.ID, true)
		}
	}
	edges := out.EdgeNodes()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := 0; i < gpuEdge && i < len(edges); i++ {
		out.SetNodeGPU(edges[i], true)
	}
	for _, n := range out.Nodes() {
		if !n.GPU {
			out.SetNodeCap(n.ID, n.Cap*0.75)
		}
	}
	return out
}

// FindNode returns the ID of the node with the given name.
func FindNode(g *graph.Graph, name string) (graph.NodeID, bool) {
	for _, n := range g.Nodes() {
		if n.Name == name {
			return n.ID, true
		}
	}
	return 0, false
}
