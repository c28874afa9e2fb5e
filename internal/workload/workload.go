// Package workload generates the request traces of the paper's evaluation
// (§IV-A, Table III): a bursty Markov-modulated Poisson process (MMPP) with
// Zipf(α=1) node popularity, and a CAIDA-like heavy-tailed trace substitute
// (the original Equinix-NewYork capture is not redistributable; DESIGN.md
// §3 documents the substitution).
//
// A trace spans a number of discrete time slots; the first part forms the
// request history R_HIST used for planning, the remainder drives the online
// phase.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"github.com/olive-vne/olive/internal/graph"
)

// Request is one online embedding request (paper Table I): application
// a(r), ingress v(r), demand d(r), arrival t(r) and duration T(r).
type Request struct {
	// ID is unique within a trace and dense from 0.
	ID int
	// App indexes the application within the run's application set.
	App int
	// Ingress is the substrate node v(r) where the user resides.
	Ingress graph.NodeID
	// Demand is d(r), the request's demand size.
	Demand float64
	// Arrive is the arrival slot t(r).
	Arrive int
	// Duration is T(r) in slots, ≥ 1.
	Duration int
}

// Departs returns the slot at which the request leaves: t(r) + T(r).
// The request is active for Arrive ≤ t < Departs.
func (r Request) Departs() int { return r.Arrive + r.Duration }

// Trace is a time-ordered request sequence over Slots time slots.
type Trace struct {
	Requests []Request
	Slots    int
}

// Split cuts the trace at histSlots: the first part (arrivals in
// [0, histSlots)) becomes the planning history R_HIST, the second part
// (arrivals in [histSlots, Slots)) the online phase, re-based to slot 0.
func (t *Trace) Split(histSlots int) (hist, online *Trace, err error) {
	if histSlots <= 0 || histSlots >= t.Slots {
		return nil, nil, fmt.Errorf("workload: split point %d outside (0,%d)", histSlots, t.Slots)
	}
	hist = &Trace{Slots: histSlots}
	online = &Trace{Slots: t.Slots - histSlots}
	// Arrival-sorted traces (every generator here produces one) split
	// without copying the history half: it aliases the input's prefix,
	// and the rebased online half is built in one exact-size allocation.
	nHist, sorted := 0, true
	for i, r := range t.Requests {
		if r.Arrive < histSlots {
			if i != nHist {
				sorted = false
				break
			}
			nHist++
		}
	}
	if sorted {
		hist.Requests = t.Requests[:nHist:nHist]
		online.Requests = make([]Request, len(t.Requests)-nHist)
		for i, r := range t.Requests[nHist:] {
			r.Arrive -= histSlots
			r.ID = i
			online.Requests[i] = r
		}
		return hist, online, nil
	}
	for _, r := range t.Requests {
		if r.Arrive < histSlots {
			hist.Requests = append(hist.Requests, r)
		} else {
			r.Arrive -= histSlots
			r.ID = len(online.Requests)
			online.Requests = append(online.Requests, r)
		}
	}
	return hist, online, nil
}

// PerSlot returns the requests grouped by arrival slot; a request arriving
// outside [0, Slots) is in no group. An arrival-sorted trace (every
// generator here produces one) is grouped without copying: each group is a
// view of t.Requests clipped to its own length, so it shares the trace's
// elements and an append to one group never writes into the next. An
// unsorted trace is copied into one new backing array, carved per slot.
func (t *Trace) PerSlot() [][]Request {
	slots := make([][]Request, t.Slots)
	cnt := make([]int, t.Slots)
	total, first, sorted := 0, 0, true
	for i, r := range t.Requests {
		if i > 0 && r.Arrive < t.Requests[i-1].Arrive {
			sorted = false
		}
		if r.Arrive < 0 {
			first = i + 1
		} else if r.Arrive < t.Slots {
			cnt[r.Arrive]++
			total++
		}
	}
	if sorted {
		off := first
		for s, n := range cnt {
			slots[s] = t.Requests[off : off+n : off+n]
			off += n
		}
		return slots
	}
	backing := make([]Request, total)
	off := 0
	for s, n := range cnt {
		slots[s] = backing[off : off : off+n]
		off += n
	}
	for _, r := range t.Requests {
		if r.Arrive >= 0 && r.Arrive < t.Slots {
			slots[r.Arrive] = append(slots[r.Arrive], r)
		}
	}
	return slots
}

// Validate checks per-request invariants.
func (t *Trace) Validate() error {
	if t.Slots <= 0 {
		return errors.New("workload: trace has no slots")
	}
	for i, r := range t.Requests {
		if r.ID != i {
			return fmt.Errorf("workload: request %d has ID %d (IDs must be dense)", i, r.ID)
		}
		if r.Arrive < 0 || r.Arrive >= t.Slots {
			return fmt.Errorf("workload: request %d arrives at %d outside [0,%d)", i, r.Arrive, t.Slots)
		}
		if r.Duration < 1 {
			return fmt.Errorf("workload: request %d has duration %d < 1", i, r.Duration)
		}
		if r.Demand <= 0 {
			return fmt.Errorf("workload: request %d has non-positive demand %g", i, r.Demand)
		}
		if i > 0 && t.Requests[i-1].Arrive > r.Arrive {
			return fmt.Errorf("workload: requests not sorted by arrival at index %d", i)
		}
	}
	return nil
}

// Params configures trace generation per Table III.
type Params struct {
	// Slots is the total trace length (6000 in the paper: 5400 history
	// + 600 online).
	Slots int
	// LambdaPerNode is the mean arrival rate per edge node per slot
	// (10 in the paper).
	LambdaPerNode float64
	// DemandMean, DemandStd parameterize request demand N(10, 2²);
	// the mean scales with target utilization (6–14 for 60–140%).
	DemandMean, DemandStd float64
	// DurationMean is the mean of the exponential duration (10 slots).
	DurationMean float64
	// NumApps is the size of the application set requests draw from.
	NumApps int
	// ZipfAlpha is the node-popularity skew exponent (1 in the paper).
	ZipfAlpha float64
	// MMPP configures burstiness; zero-value disables modulation
	// (plain Poisson).
	MMPP MMPPParams
}

// MMPPParams parameterizes the two-state Markov-modulated Poisson process.
// Rates are multipliers applied to the base arrival rate; the stationary
// mean of the modulation is kept at 1 so LambdaPerNode is preserved.
type MMPPParams struct {
	// HighFactor, LowFactor scale the base rate in the high/low state.
	HighFactor, LowFactor float64
	// SwitchProb is the per-slot probability of switching state.
	SwitchProb float64
}

// DefaultMMPP returns a bursty two-state modulation: rate 1.5× in bursts,
// 0.5× in lulls, symmetric switching with mean sojourn 20 slots. The
// stationary mean is (1.5+0.5)/2 = 1, preserving the configured λ.
func DefaultMMPP() MMPPParams {
	return MMPPParams{HighFactor: 1.5, LowFactor: 0.5, SwitchProb: 0.05}
}

func (m MMPPParams) enabled() bool { return m.HighFactor != 0 || m.LowFactor != 0 }

// DefaultParams returns the Table III trace parameters at 100% utilization.
func DefaultParams() Params {
	return Params{
		Slots:         6000,
		LambdaPerNode: 10,
		DemandMean:    10,
		DemandStd:     2,
		DurationMean:  10,
		NumApps:       4,
		ZipfAlpha:     1,
		MMPP:          DefaultMMPP(),
	}
}

// WithUtilization returns a copy of p with the demand mean scaled for the
// target edge utilization: util 1.0 ⇒ mean 10, util 0.6 ⇒ 6, util 1.4 ⇒ 14
// (§IV-A "Methodology").
func (p Params) WithUtilization(util float64) Params {
	p.DemandMean = 10 * util
	return p
}

func (p Params) validate(edgeNodes int) error {
	switch {
	case p.Slots <= 0:
		return errors.New("workload: Slots must be positive")
	case p.LambdaPerNode <= 0:
		return errors.New("workload: LambdaPerNode must be positive")
	case p.DemandMean <= 0:
		return errors.New("workload: DemandMean must be positive")
	case p.DurationMean <= 0:
		return errors.New("workload: DurationMean must be positive")
	case p.NumApps <= 0:
		return errors.New("workload: NumApps must be positive")
	case edgeNodes == 0:
		return errors.New("workload: substrate has no edge nodes")
	}
	return nil
}

// zipfWeights returns normalized Zipf(α) popularity weights for n ranks.
func zipfWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// poisson draws from Poisson(mean) — Knuth's method for small means,
// normal approximation beyond 30 (adequate for trace generation).
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		k := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if k < 0 {
			return 0
		}
		return k
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func (p Params) drawDemand(rng *rand.Rand) float64 {
	d := p.DemandMean + p.DemandStd*rng.NormFloat64()
	if d < 0.1 {
		d = 0.1
	}
	return d
}

func (p Params) drawDuration(rng *rand.Rand) int {
	d := int(math.Ceil(rng.ExpFloat64() * p.DurationMean))
	if d < 1 {
		d = 1
	}
	return d
}

// GenerateMMPP produces the paper's first trace: per-edge-node Poisson
// arrivals with Zipf(α=1) popularity, modulated by a shared two-state
// Markov chain (bursts hit the whole network, as in [34]).
func GenerateMMPP(g *graph.Graph, p Params, rng *rand.Rand) (*Trace, error) {
	edge := g.EdgeNodes()
	if err := p.validate(len(edge)); err != nil {
		return nil, err
	}
	// Zipf popularity over a random permutation of edge nodes, so the
	// most popular node varies between seeds.
	weights := zipfWeights(len(edge), p.ZipfAlpha)
	perm := rng.Perm(len(edge))
	// Per-node rates normalized so the *mean over nodes* is
	// LambdaPerNode (total = λ·N, e.g. 1000/slot on 100N150E).
	rates := make([]float64, len(edge))
	for i := range edge {
		rates[i] = p.LambdaPerNode * float64(len(edge)) * weights[perm[i]]
	}

	tr := &Trace{Slots: p.Slots}
	// One up-front allocation near the expected request count (mean
	// λ·N·slots) instead of log₂(n) append doublings over ~megabytes.
	expect := int(p.LambdaPerNode * float64(len(edge)) * float64(p.Slots))
	tr.Requests = make([]Request, 0, expect+expect/8+64)
	high := rng.Float64() < 0.5
	for t := 0; t < p.Slots; t++ {
		mod := 1.0
		if p.MMPP.enabled() {
			if rng.Float64() < p.MMPP.SwitchProb {
				high = !high
			}
			if high {
				mod = p.MMPP.HighFactor
			} else {
				mod = p.MMPP.LowFactor
			}
		}
		for i, v := range edge {
			n := poisson(rates[i]*mod, rng)
			for k := 0; k < n; k++ {
				tr.Requests = append(tr.Requests, Request{
					ID:       len(tr.Requests),
					App:      rng.IntN(p.NumApps),
					Ingress:  v,
					Demand:   p.drawDemand(rng),
					Arrive:   t,
					Duration: p.drawDuration(rng),
				})
			}
		}
	}
	return tr, nil
}

// CAIDAParams configures the CAIDA-like trace substitute.
type CAIDAParams struct {
	// Sources is the number of aggregated IP sources.
	Sources int
	// ParetoAlpha is the tail exponent of per-source rates (heavy tail).
	ParetoAlpha float64
	// DiurnalAmplitude modulates the total rate sinusoidally, mimicking
	// the capture's slow rate variation, in [0,1).
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period in slots; 0 uses the whole
	// trace as one period. Shorter periods give the history multiple
	// full cycles — the regime the time-varying plan extension targets.
	DiurnalPeriod int
}

// DefaultCAIDAParams returns the substitute-trace parameters. The source
// count is deliberately small relative to the edge-node count: the
// capture's "elephant" sources are what concentrates load on the
// datacenters they are assigned to, and with too many sources the uniform
// assignment averages the heavy tail away (no spatial skew, no
// contention).
func DefaultCAIDAParams() CAIDAParams {
	return CAIDAParams{Sources: 64, ParetoAlpha: 1.15, DiurnalAmplitude: 0.3}
}

// GenerateCAIDA produces the paper's second trace: heavy-tailed per-source
// request rates (aggregated "IP sources"), each source pinned to a random
// edge datacenter — reproducing the paper's own adaptation of the
// Equinix-NewYork capture to the edge setting (§IV-A "Traces").
func GenerateCAIDA(g *graph.Graph, p Params, cp CAIDAParams, rng *rand.Rand) (*Trace, error) {
	edge := g.EdgeNodes()
	if err := p.validate(len(edge)); err != nil {
		return nil, err
	}
	if cp.Sources <= 0 || cp.ParetoAlpha <= 1 {
		return nil, errors.New("workload: CAIDA substitute needs Sources > 0 and ParetoAlpha > 1")
	}
	// Pareto(α) source weights, normalized; each source homes to a
	// uniformly random edge DC (spatial skew emerges from the tail).
	srcRate := make([]float64, cp.Sources)
	srcNode := make([]graph.NodeID, cp.Sources)
	var sum float64
	for i := range srcRate {
		srcRate[i] = math.Pow(1-rng.Float64(), -1/cp.ParetoAlpha) // Pareto ≥ 1
		sum += srcRate[i]
		srcNode[i] = edge[rng.IntN(len(edge))]
	}
	total := p.LambdaPerNode * float64(len(edge)) // target mean per slot
	for i := range srcRate {
		srcRate[i] = srcRate[i] / sum * total
	}

	period := cp.DiurnalPeriod
	if period <= 0 {
		period = p.Slots
	}
	tr := &Trace{Slots: p.Slots}
	expect := int(total * float64(p.Slots))
	tr.Requests = make([]Request, 0, expect+expect/8+64)
	for t := 0; t < p.Slots; t++ {
		mod := 1 + cp.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/float64(period))
		for i := range srcRate {
			n := poisson(srcRate[i]*mod, rng)
			for k := 0; k < n; k++ {
				tr.Requests = append(tr.Requests, Request{
					ID:       len(tr.Requests),
					App:      rng.IntN(p.NumApps),
					Ingress:  srcNode[i],
					Demand:   p.drawDemand(rng),
					Arrive:   t,
					Duration: p.drawDuration(rng),
				})
			}
		}
	}
	// Arrivals are generated slot-major but per-slot order interleaves
	// sources; normalize to a stable sort by arrival (IDs re-densified).
	sort.SliceStable(tr.Requests, func(i, j int) bool { return tr.Requests[i].Arrive < tr.Requests[j].Arrive })
	for i := range tr.Requests {
		tr.Requests[i].ID = i
	}
	return tr, nil
}

// ShuffleIngress returns a copy of the trace with every request's ingress
// replaced by a uniformly random edge node — the "spatial distribution
// change" stressor of Fig. 14, applied to the planning input.
func ShuffleIngress(t *Trace, g *graph.Graph, rng *rand.Rand) *Trace {
	return ShuffleIngressFrom(t, g, 0, rng)
}

// ShuffleIngressFrom is ShuffleIngress restricted to requests arriving at
// or after fromSlot: the prefix keeps its spatial distribution, the
// suffix is redrawn uniformly over the edge nodes. This is the drifted
// second-half stressor the serving layer's replanning demo uses — a plan
// built on the prefix distribution faces a suffix it never saw.
func ShuffleIngressFrom(t *Trace, g *graph.Graph, fromSlot int, rng *rand.Rand) *Trace {
	edge := g.EdgeNodes()
	out := &Trace{Slots: t.Slots, Requests: append([]Request(nil), t.Requests...)}
	for i := range out.Requests {
		if out.Requests[i].Arrive >= fromSlot {
			out.Requests[i].Ingress = edge[rng.IntN(len(edge))]
		}
	}
	return out
}
