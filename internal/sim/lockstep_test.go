package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/serve"
)

// TestServeMatchesSim runs each golden cell a serve.Server can express —
// one plan for the whole online phase (no PlanWindows schedule) and the
// engine's default options (no ablation) — through sim, replays its online
// requests in order against a one-shard deterministic serve.Server on the
// same substrate, apps and plan, and holds serve to sim request by
// request: accepted, planned, the decision slot, the requests each
// decision preempted, and each accepted request's cost. It then rebuilds
// the Eq. 3 resource cost from the replies' costs with the bookkeeping sim
// kept before the engine owned the running cost — a map of live requests,
// departures subtracted in sorted ID order each slot — and requires its
// bits to equal sim's ResourceCost.
// SLOTOFF is batch-only, so serve refuses it.
func TestServeMatchesSim(t *testing.T) {
	algos := []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG, core.AlgoFullG}
	cells := 0
	for _, gc := range GoldenConfigs() {
		if gc.Config.PlanWindows > 1 || gc.Config.EngineOptions != (core.Options{}) {
			continue
		}
		cells++
		t.Run(gc.Name, func(t *testing.T) {
			cfg := gc.Config
			cfg.Algorithms = algos
			rr, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range algos {
				t.Run(string(algo), func(t *testing.T) {
					checkServeMatchesSim(t, rr, rr.Results[algo])
				})
			}
		})
	}
	if cells != 3 {
		t.Fatalf("%d golden configs are servable, want 3 (iris-mmpp-u100, iris-gpu-u100, 5gen-shuffled-u80)", cells)
	}
}

func checkServeMatchesSim(t *testing.T, rr *RunResult, ar *AlgoResult) {
	opts := serve.Options{Shards: 1, Deterministic: true, Algorithm: ar.Algorithm}
	if ar.Algorithm == core.AlgoOLIVE {
		opts.Plan = rr.Plan
	}
	srv, err := serve.New(rr.Substrate, rr.Apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()

	stream := make([]serve.StreamRequest, len(ar.Log))
	for i, rec := range ar.Log {
		stream[i] = serve.StreamRequest{
			App: rec.App, Ingress: int(rec.Ingress), Demand: rec.Demand,
			Duration: rec.Duration, Arrive: rec.Arrive,
		}
	}
	var out bytes.Buffer
	if err := serve.Replay(ts.Client(), ts.URL, stream, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(ar.Log) {
		t.Fatalf("serve answered %d of %d requests", len(lines), len(ar.Log))
	}

	preempted := 0
	decs := make([]decision, len(lines))
	for i, line := range lines {
		d, err := parseDecision(line)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		decs[i] = d
		rec := &ar.Log[i]
		simD := fmt.Sprintf("accepted=%t planned=%t slot=%d", rec.Accepted, rec.Planned, rec.Arrive)
		serveD := fmt.Sprintf("accepted=%t planned=%t slot=%d", d.accepted, d.planned, d.slot)
		if d.id != i || simD != serveD {
			t.Fatalf("%s: request %d (slot %d) is the first to diverge: sim %s, serve (id %d) %s",
				ar.Algorithm, i, rec.Arrive, simD, d.id, serveD)
		}
		if rec.Accepted && math.Float64bits(rec.Cost) != math.Float64bits(d.cost) {
			t.Fatalf("%s: request %d (slot %d) is the first to diverge: sim cost %v (%016x), serve cost %v (%016x)",
				ar.Algorithm, i, rec.Arrive, rec.Cost, math.Float64bits(rec.Cost), d.cost, math.Float64bits(d.cost))
		}
		for _, pid := range d.preempted {
			if pid < 0 || pid >= i || !ar.Log[pid].Preempted || ar.Log[pid].PreemptSlot != d.slot {
				t.Fatalf("%s: request %d (slot %d) is the first to diverge: serve preempted %v, sim did not preempt request %d at that slot",
					ar.Algorithm, i, rec.Arrive, d.preempted, pid)
			}
		}
		preempted += len(d.preempted)
	}
	simPreempted := 0
	for i := range ar.Log {
		if ar.Log[i].Preempted {
			simPreempted++
		}
	}
	if preempted != simPreempted {
		t.Fatalf("%s: serve preempted %d requests, sim %d", ar.Algorithm, preempted, simPreempted)
	}

	cost := referenceResourceCost(ar.Log, decs, len(ar.PerSlotRequested))
	if math.Float64bits(cost) != math.Float64bits(ar.ResourceCost) {
		t.Fatalf("%s: resource cost rebuilt from serve's replies is %v (%016x), sim's is %v (%016x)",
			ar.Algorithm, cost, math.Float64bits(cost), ar.ResourceCost, math.Float64bits(ar.ResourceCost))
	}
	t.Logf("%s: %d requests, %d preempted, resource cost %g", ar.Algorithm, len(ar.Log), preempted, cost)
}

// referenceResourceCost sums the running cost of the active requests over
// slots 0..slots−1. Each slot first drops the requests departing by it in
// ascending ID order, then applies the slot's decisions in arrival order:
// the victims a decision preempted leave in the order it lists them, and
// an accepted request joins with its reply's cost.
func referenceResourceCost(log []RequestRecord, decs []decision, slots int) float64 {
	type live struct {
		contrib float64
		departs int
	}
	liveReqs := make(map[int]live)
	var gone []int
	var running, total float64
	next := 0
	for t := 0; t < slots; t++ {
		gone = gone[:0]
		for id, lr := range liveReqs {
			if lr.departs <= t {
				gone = append(gone, id)
			}
		}
		sort.Ints(gone)
		for _, id := range gone {
			running -= liveReqs[id].contrib
			delete(liveReqs, id)
		}
		for ; next < len(log) && log[next].Arrive == t; next++ {
			d := decs[next]
			for _, pid := range d.preempted {
				if lr, ok := liveReqs[pid]; ok {
					running -= lr.contrib
					delete(liveReqs, pid)
				}
			}
			if d.accepted {
				liveReqs[next] = live{contrib: d.cost, departs: log[next].Arrive + log[next].Duration}
				running += d.cost
			}
		}
		total += running
	}
	return total
}

// decision is one serve.DecisionLine, parsed.
type decision struct {
	id, slot          int
	accepted, planned bool
	cost              float64
	preempted         []int
}

// parseDecision parses a serve.DecisionLine:
//
//	req=<id> shard=<n> slot=<t> accepted=<0|1> planned=<0|1> cost=<g> [preempted=<ids>]
func parseDecision(line string) (decision, error) {
	var d decision
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return d, fmt.Errorf("decision line %q: field %q", line, f)
		}
		var err error
		switch k {
		case "req":
			d.id, err = strconv.Atoi(v)
		case "slot":
			d.slot, err = strconv.Atoi(v)
		case "accepted":
			d.accepted = v == "1"
		case "planned":
			d.planned = v == "1"
		case "cost":
			d.cost, err = strconv.ParseFloat(v, 64)
		case "preempted":
			for _, s := range strings.Split(v, ",") {
				var id int
				if id, err = strconv.Atoi(s); err != nil {
					break
				}
				d.preempted = append(d.preempted, id)
			}
		}
		if err != nil {
			return d, fmt.Errorf("decision line %q: %v", line, err)
		}
	}
	return d, nil
}
