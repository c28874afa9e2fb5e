// Command planner builds a PLAN-VNE embedding plan from a synthetic
// history and prints it: per-class expected demand, planned shares (with
// their embeddings), rejected fractions, and plan-level diagnostics. It is
// the offline half of OLIVE as a standalone tool for inspecting plans. It
// writes no plan file: vnesim and vnesimd build their plans from their
// own histories.
//
// Usage:
//
//	planner -topo iris -util 1.0 -slots 600
//	planner -topo cittastudi -util 1.4 -quantiles 50 -v
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "planner:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("planner", flag.ContinueOnError)
	name := fs.String("topo", "iris", "topology: iris, cittastudi, 5gen, 100n150e")
	util := fs.Float64("util", 1.0, "target edge utilization (1.0 = 100%)")
	slots := fs.Int("slots", 600, "history length in slots")
	lambda := fs.Float64("lambda", 10, "mean arrivals per edge node per slot")
	quantiles := fs.Int("quantiles", 10, "rejection quantiles P")
	alpha := fs.Float64("alpha", 0.8, "aggregation percentile")
	seed := fs.Uint64("seed", 1, "random seed")
	verbose := fs.Bool("v", false, "print every share's embedding")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := topo.Build(topo.Name(*name), 1)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(*seed, 0x1a91))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)

	wp := workload.DefaultParams()
	wp.Slots = *slots
	wp.LambdaPerNode = *lambda
	wp.DemandMean = *util * 100 / *lambda
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		return err
	}

	opts := plan.DefaultOptions()
	opts.Quantiles = *quantiles
	opts.Alpha = *alpha

	t0 := time.Now()
	p, err := plan.BuildFromHistory(g, apps, hist, opts, rng)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	if err := p.Validate(g); err != nil {
		return fmt.Errorf("plan failed validation: %w", err)
	}

	fmt.Printf("PLAN-VNE on %s @%.0f%% utilization: %d classes, objective %.4g\n",
		*name, *util*100, len(p.Classes), p.Obj)
	fmt.Printf("solved in %v (%d simplex pivots, %d pricing rounds)\n",
		elapsed, p.Iterations, p.PricingRounds)
	fmt.Printf("rejection balance index: %.3f\n\n", p.RejectionBalance())

	var planned, rejected, total float64
	for _, cp := range p.Classes {
		total += cp.Class.Demand
		planned += cp.PlannedDemand()
		rejected += cp.Rejected * cp.Class.Demand
	}
	fmt.Printf("aggregate demand %.0f: planned %.0f (%.1f%%), rejected %.0f (%.1f%%)\n\n",
		total, planned, 100*planned/total, rejected, 100*rejected/total)

	for _, cp := range p.Classes {
		if !*verbose && cp.Rejected < 1e-9 {
			continue
		}
		fmt.Printf("class app=%s ingress=%s demand=%.1f planned=%.1f rejected=%.1f%%\n",
			apps[cp.Class.App].Name, g.Node(cp.Class.Ingress).Name,
			cp.Class.Demand, cp.PlannedDemand(), 100*cp.Rejected)
		if *verbose {
			for _, s := range cp.Shares {
				fmt.Printf("  share %.3f on nodes %s (unit cost %.1f)\n",
					s.Fraction, nodeNames(g, s.E.NodeMap), s.E.UnitCost())
			}
		}
	}
	if !*verbose {
		fmt.Println("\n(classes with no rejection omitted; -v prints all shares)")
	}
	return nil
}

func nodeNames(g *graph.Graph, ids []graph.NodeID) string {
	out := ""
	for i, id := range ids {
		if i == 0 {
			continue // θ
		}
		if i > 1 {
			out += ","
		}
		out += g.Node(id).Name
	}
	return out
}
