package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/workload"
)

// onlineBench is the batch online loop, the paper's headline: one pass
// feeds the whole online trace through a fresh core.Engine over a reset
// substrate.State. With a plan it is OLIVE (online-olive-r100: plan
// lookup, greedy fallback and preemption all in play under 140 % load,
// and not one LP solve); with exact it is FULLG (online-fullg-iris: the
// same Engine entry points, but nearly all time in the embedder's exact
// DP and the shortest-path trees under it). The unit operation is one
// request; latency is taken per time slot, the granularity an operator
// sees ("were this slot's arrivals decided before the next slot?").
type onlineBench struct {
	sc    scale
	topo  topo.Name
	exact bool
	spec  traceSpec // history + online, split at histSlots
	hist  int

	seed   uint64
	scn    *scenario
	plan   *plan.Plan
	online *workload.Trace
	slots  [][]workload.Request
	oracle *embedder.Oracle
	drain  int // slot by which every request has departed

	generate time.Duration
}

func newOliveBench(sc scale) bench {
	return &onlineBench{
		sc: sc, topo: pick(sc, topo.Random100, topo.CittaStudi), hist: pick(sc, 200, 40),
		spec: traceSpec{stream: 0x51f1, slots: pick(sc, 800, 70), lambda: pick(sc, 10.0, 3.0), util: 1.4},
	}
}

func newFullGBench(sc scale) bench {
	return &onlineBench{
		sc: sc, topo: pick(sc, topo.Iris, topo.CittaStudi), exact: true,
		spec: traceSpec{stream: 0x3000, slots: pick(sc, 320, 12), lambda: 3, util: 1.0},
	}
}

func (b *onlineBench) setup(seed uint64) error {
	b.seed = seed
	scn, err := newScenario(b.topo)
	if err != nil {
		return err
	}
	t0 := time.Now()
	full, err := scn.base(b.spec)
	if err != nil {
		return err
	}
	b.scn, b.plan, b.online = scn, nil, full
	if !b.exact {
		// The plan is yesterday's: built from the scenario's own history,
		// the same for every seed. The seed draws today's requests.
		hist, online, err := full.Split(b.hist)
		if err != nil {
			return err
		}
		b.online = online
		b.generate = time.Since(t0)
		rng := rand.New(rand.NewPCG(scenarioSeed, 0xa660))
		if b.plan, err = plan.BuildFromHistory(scn.g, scn.apps, hist, plan.DefaultOptions(), rng); err != nil {
			return err
		}
		if err := checkPlan(b.plan, scn.g); err != nil {
			return err
		}
		t0 = time.Now()
	}
	remark(b.online.Requests, rand.New(rand.NewPCG(seed, b.spec.stream)))
	b.generate += time.Since(t0)
	b.slots = b.online.PerSlot()
	b.drain = b.online.Slots + maxDuration(b.online) + 1
	b.oracle = embedder.ForState(substrate.New(scn.g))
	return nil
}

func (b *onlineBench) run(budget time.Duration, tr *tracer) (*result, error) {
	res := &result{layer: map[string]float64{}, tail: 0.99} // ≥ 4 passes × ≥ 320 slots
	n := len(b.online.Requests)
	var nPass, nSlot, nProc uint16
	if tr != nil {
		nPass, nSlot, nProc = tr.name("pass"), tr.name("core.Engine.StartSlot"), tr.name("core.Engine.Process")
		tr.reserve(n + len(b.slots) + 1)
	}
	var c0 counters
	var mem0 runtime.MemStats
	var p50, p99, startslot, planned, preempted, allocs, bytesPer []float64
	timedPasses := 0
	caps := b.scn.g.Capacities()
	pass := func(timed bool) error {
		if timed && timedPasses == 0 {
			c0 = readCounters()
		}
		parent := int32(-1)
		if tr != nil {
			tr.reset()
			runtime.ReadMemStats(&mem0)
			parent = tr.begin(nPass, -1, -1)
		}
		digest := uint64(fnvOffset)
		var acc, plannedN, pre int
		start := time.Now()
		eng, err := core.NewEngineOn(b.oracle, b.scn.apps, core.Options{Plan: b.plan, Exact: b.exact})
		if err != nil {
			return err
		}
		slotStart := start
		if timed {
			res.passNS = append(res.passNS, make([]float64, 0, len(b.slots)))
		}
		for t, rs := range b.slots {
			if tr != nil {
				id := tr.begin(nSlot, parent, -1)
				eng.StartSlot(t)
				tr.end(id)
			} else {
				eng.StartSlot(t)
			}
			for _, r := range rs {
				var out core.Outcome
				if tr != nil {
					id := tr.begin(nProc, parent, int32(r.ID))
					out, err = eng.Process(r)
					tr.end(id)
				} else {
					out, err = eng.Process(r)
				}
				if err != nil {
					return fmt.Errorf("request %d: %w", r.ID, err)
				}
				v := uint64(len(out.Preempted)) << 2
				if out.Accepted {
					acc++
					v |= 1
				}
				if out.Planned {
					plannedN++
					v |= 2
				}
				digest = fnv1a(digest, v)
				for _, id := range out.Preempted {
					digest = fnv1a(digest, uint64(id))
				}
				pre += len(out.Preempted)
			}
			if timed {
				now := time.Now()
				res.passNS[timedPasses] = append(res.passNS[timedPasses], float64(now.Sub(slotStart)))
				slotStart = now
			}
		}
		wall := time.Since(start)
		if tr != nil {
			tr.end(parent)
		}
		if err := eng.CheckInvariants(); err != nil {
			return fmt.Errorf("output check failed: %w", err)
		}
		// Nothing may leak: once the last request has departed the
		// residual vector must be the capacity vector again.
		eng.StartSlot(b.drain)
		if eng.ActiveCount() != 0 {
			return fmt.Errorf("output check failed: %d requests still active after the last departure", eng.ActiveCount())
		}
		for e, r := range eng.ResidualView() {
			if !nearlyEqual(r, caps[e], 1e-6*max(1, caps[e])) {
				return fmt.Errorf("output check failed: element %d residual %g after drain, capacity %g", e, r, caps[e])
			}
		}
		if res.digest != 0 && digest != res.digest {
			return fmt.Errorf("output check failed: decisions differ between passes (digest %#x, then %#x)", res.digest, digest)
		}
		res.digest = digest
		res.rejectRatio = float64(n-acc+pre) / float64(n)
		if !timed {
			return nil
		}
		timedPasses++
		res.attempted += n
		res.passOps = append(res.passOps, float64(n)/wall.Seconds())
		if tr != nil {
			var mem1 runtime.MemStats
			runtime.ReadMemStats(&mem1)
			proc := sortedCopy(tr.durations("core.Engine.Process"))
			p50 = append(p50, percentile(proc, 0.5))
			p99 = append(p99, percentile(proc, 0.99))
			startslot = append(startslot, median(tr.durations("core.Engine.StartSlot"))/1e3)
			planned = append(planned, float64(plannedN)/float64(max(acc, 1)))
			preempted = append(preempted, 1000*float64(pre)/float64(n))
			allocs = append(allocs, float64(mem1.Mallocs-mem0.Mallocs)/float64(n))
			bytesPer = append(bytesPer, float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(n))
		}
		return nil
	}
	if err := passLoop(budget, 4, pass); err != nil {
		return nil, err
	}
	c1 := readCounters()
	counterMetrics(res.layer, c0, c1, timedPasses)
	if c1.lp.Solves != c0.lp.Solves {
		return nil, fmt.Errorf("output check failed: %d LP solves inside the online loop, want 0", c1.lp.Solves-c0.lp.Solves)
	}
	if tr != nil {
		res.layer["core.process_p50_ns"] = median(p50)
		res.layer["core.process_p99_ns"] = median(p99)
		res.layer["core.startslot_us"] = median(startslot)
		res.layer["core.planned_ratio"] = median(planned)
		res.layer["core.preempted_per_kreq"] = median(preempted)
		res.layer["core.allocs_per_req"] = median(allocs)
		res.layer["core.bytes_per_req"] = median(bytesPer)
	}
	return res, nil
}

func (b *onlineBench) probe(m map[string]float64, budget time.Duration) {
	m["topo.build_ms"] = float64(b.scn.topoBuild) / 1e6
	m["workload.generate_ms"] = float64(b.generate) / 1e6
	probeLayers(m, budget, b.scn, b.online, b.plan)
}

func (b *onlineBench) close() {}
