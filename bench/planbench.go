package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/workload"
)

// planBench is plan-cold-r100: the offline phase, cold. One pass
// aggregates each of six request histories and solves PLAN-VNE for it on
// a fresh Solver, so nothing is warm: no basis memory, no candidate pool,
// no path trees. The unit operation is one Aggregate + Build.
type planBench struct {
	sc    scale
	topo  topo.Name
	seed  uint64
	scn   *scenario
	hists []*workload.Trace
	opts  plan.Options

	generate time.Duration
	plans    []*plan.Plan // of the last pass, for the probes
}

func newPlanBench(sc scale) bench {
	return &planBench{sc: sc, topo: pick(sc, topo.Random100, topo.CittaStudi), opts: plan.DefaultOptions()}
}

func (b *planBench) setup(seed uint64) error {
	b.seed = seed
	scn, err := newScenario(b.topo)
	if err != nil {
		return err
	}
	b.scn, b.hists, b.generate = scn, nil, 0
	for i := 0; i < pick(b.sc, 6, 2); i++ {
		spec := traceSpec{stream: 0x1000 + uint64(i), slots: pick(b.sc, 200, 40), lambda: pick(b.sc, 10.0, 3.0), util: 1.4}
		h, d, err := scn.trace(spec, seed)
		if err != nil {
			return err
		}
		b.hists = append(b.hists, h)
		b.generate += d
	}
	return nil
}

// checkPlan verifies a plan is feasible: every class's shares and
// rejected fraction sum to one, and the planned load fits every element.
func checkPlan(p *plan.Plan, g *graph.Graph) error {
	if err := p.Validate(g); err != nil {
		return fmt.Errorf("output check failed: %w", err)
	}
	for _, cp := range p.Classes {
		sum := cp.Rejected
		for _, s := range cp.Shares {
			sum += s.Fraction
		}
		if !nearlyEqual(sum, 1, 1e-5) {
			return fmt.Errorf("output check failed: class (%d,%d) shares+rejected = %.9f, want 1", cp.Class.App, cp.Class.Ingress, sum)
		}
	}
	load := p.TotalPlannedLoad(g.NumElements())
	for e, l := range load {
		if c := g.ElementCap(graph.ElementID(e)); l > c+1e-6*math.Max(1, c) {
			return fmt.Errorf("output check failed: element %d planned load %g above capacity %g", e, l, c)
		}
	}
	return nil
}

// plannedRejectShare is the share of aggregate demand the plans
// themselves give up on.
func plannedRejectShare(plans []*plan.Plan) float64 {
	var rej, tot float64
	for _, p := range plans {
		for _, cp := range p.Classes {
			rej += cp.Rejected * cp.Class.Demand
			tot += cp.Class.Demand
		}
	}
	return rej / tot
}

func (b *planBench) run(budget time.Duration, tr *tracer) (*result, error) {
	res := &result{layer: map[string]float64{}, tail: 0.5} // 3 passes × 6 builds: nothing beyond the median has ten samples past it
	var nPass, nAgg, nBuild uint16
	if tr != nil {
		nPass, nAgg, nBuild = tr.name("pass"), tr.name("plan.Aggregate"), tr.name("plan.Solver.Build")
		tr.reserve(2*len(b.hists) + 1)
	}
	var c0 counters
	var aggMS, buildMS, rounds, objective []float64
	timedPasses := 0
	pass := func(timed bool) error {
		if timed && timedPasses == 0 {
			c0 = readCounters()
		}
		parent := int32(-1)
		if tr != nil {
			tr.reset()
			parent = tr.begin(nPass, -1, -1)
		}
		digest := uint64(fnvOffset)
		plans := make([]*plan.Plan, 0, len(b.hists))
		var passAgg, passBuild, passRounds, passObj float64
		hists := b.hists
		if !timed {
			hists = hists[:1] // warming up takes one build, not a pass of them
		}
		if timed {
			res.passNS = append(res.passNS, nil)
		}
		start := time.Now()
		for i, h := range hists {
			t0 := time.Now()
			rng := rand.New(rand.NewPCG(b.seed, 0xa660+uint64(i)))
			classes, err := plan.Aggregate(h, len(b.scn.apps), b.opts.Alpha, b.opts.BootstrapB, rng)
			t1 := time.Now()
			var p *plan.Plan
			if err == nil {
				p, err = plan.NewSolver(b.scn.g, b.scn.apps).Build(classes, b.opts)
			}
			t2 := time.Now()
			if tr != nil {
				tr.add(nAgg, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)), parent, int32(i))
				tr.add(nBuild, int64(t1.Sub(tr.epoch)), int64(t2.Sub(tr.epoch)), parent, int32(i))
			}
			if timed {
				res.attempted++
			}
			if err != nil {
				return fmt.Errorf("history %d: %w", i, err)
			}
			if timed {
				res.passNS[timedPasses] = append(res.passNS[timedPasses], float64(t2.Sub(t0)))
			}
			if err := checkPlan(p, b.scn.g); err != nil {
				return fmt.Errorf("history %d: %w", i, err)
			}
			passAgg += float64(t1.Sub(t0)) / 1e6
			passBuild += float64(t2.Sub(t1)) / 1e6
			passRounds += float64(p.PricingRounds)
			passObj += p.Obj
			digest = fnv1a(fnv1a(fnv1a(digest, math.Float64bits(p.Obj)), uint64(p.PricingRounds)), uint64(len(p.Classes)))
			plans = append(plans, p)
		}
		wall := time.Since(start)
		if tr != nil {
			tr.end(parent)
		}
		if timed {
			if res.digest != 0 && digest != res.digest {
				return fmt.Errorf("output check failed: plans differ between passes (digest %#x, then %#x)", res.digest, digest)
			}
			res.digest = digest
			b.plans = plans
			timedPasses++
			n := float64(len(b.hists))
			res.passOps = append(res.passOps, n/wall.Seconds())
			aggMS = append(aggMS, passAgg/n)
			buildMS = append(buildMS, passBuild/n)
			rounds = append(rounds, passRounds)
			objective = append(objective, passObj)
		}
		return nil
	}
	if err := passLoop(budget, 3, pass); err != nil {
		return nil, err
	}
	res.rejectRatio = plannedRejectShare(b.plans)
	counterMetrics(res.layer, c0, readCounters(), timedPasses)
	res.layer["plan.aggregate_ms"] = median(aggMS)
	res.layer["plan.build_ms"] = median(buildMS)
	res.layer["plan.pricing_rounds"] = median(rounds)
	res.layer["plan.objective"] = median(objective)
	return res, nil
}

func (b *planBench) probe(m map[string]float64, budget time.Duration) {
	m["topo.build_ms"] = float64(b.scn.topoBuild) / 1e6
	m["workload.generate_ms"] = float64(b.generate) / 1e6
	probeLayers(m, budget, b.scn, b.hists[0], b.plans[0])
}

func (b *planBench) close() {}
