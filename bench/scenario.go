package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// scenarioSeed pins what an operator's site looks like: the topology, the
// application mix, which edge nodes are popular and when the bursts come.
// The -seed argument draws everything else: every request's application,
// demand and duration, the bootstrap resampling of plan aggregation, the
// drifted ingresses and the replan streams.
//
// The split is deliberate. Drawing the popularity order and the burst
// schedule from -seed as well moved online_req_per_s on 100n150e by 11x
// across eight seeds (49k to 550k requests/s; rejection 0.7 % to 22 %),
// because a popular node next to a thin link, or 60 % instead of 50 % of
// the slots in the burst state, decides how often OLIVE must preempt. A
// benchmark whose inputs differ that much between seeds measures the
// seed, not the code.
const scenarioSeed = 1

// scenario is the fixed part of a workload's inputs.
type scenario struct {
	g         *graph.Graph
	apps      []*vnet.App
	topoBuild time.Duration // what topo.Build took
}

func newScenario(name topo.Name) (*scenario, error) {
	t0 := time.Now()
	g, err := topo.Build(name, scenarioSeed)
	if err != nil {
		return nil, err
	}
	built := time.Since(t0)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(scenarioSeed, 0x51f0)))
	return &scenario{g: g, apps: apps, topoBuild: built}, nil
}

// traceSpec sizes one request trace.
type traceSpec struct {
	// stream separates the traces of one scenario: each stream is its own
	// arrival pattern (a different "day" at the same site).
	stream uint64
	slots  int
	lambda float64 // arrivals per edge node per slot
	util   float64 // target edge utilization
}

// base generates the scenario's own trace for spec with
// workload.GenerateMMPP: the same for every seed.
func (sc *scenario) base(spec traceSpec) (*workload.Trace, error) {
	wp := workload.DefaultParams().WithUtilization(spec.util)
	wp.Slots = spec.slots
	wp.LambdaPerNode = spec.lambda
	wp.NumApps = len(sc.apps)
	// sim.Run's calibration: E[d] = u·100/λ keeps edge utilization at u
	// for any arrival rate.
	wp.DemandMean = spec.util * 100 / spec.lambda
	tr, err := workload.GenerateMMPP(sc.g, wp, rand.New(rand.NewPCG(scenarioSeed, spec.stream)))
	if err != nil {
		return nil, fmt.Errorf("trace stream %#x: %w", spec.stream, err)
	}
	return tr, nil
}

// remark deals the (application, demand, duration) marks of rs out again
// in an order drawn from rng, leaving slot and ingress of every request
// alone. The marks keep the generator's exact distribution (they are a
// permutation of what it drew), so load per slot and per node is the
// scenario's, while which request asks for what is the seed's.
func remark(rs []workload.Request, rng *rand.Rand) {
	for i := len(rs) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		rs[i].App, rs[j].App = rs[j].App, rs[i].App
		rs[i].Demand, rs[j].Demand = rs[j].Demand, rs[i].Demand
		rs[i].Duration, rs[j].Duration = rs[j].Duration, rs[i].Duration
	}
}

// trace is base followed by remark over the whole trace, timed.
func (sc *scenario) trace(spec traceSpec, seed uint64) (*workload.Trace, time.Duration, error) {
	t0 := time.Now()
	tr, err := sc.base(spec)
	if err != nil {
		return nil, 0, err
	}
	remark(tr.Requests, rand.New(rand.NewPCG(seed, spec.stream)))
	return tr, time.Since(t0), nil
}

// maxDuration returns the longest request lifetime of a trace, in slots.
func maxDuration(tr *workload.Trace) int {
	m := 0
	for _, r := range tr.Requests {
		m = max(m, r.Duration)
	}
	return m
}
