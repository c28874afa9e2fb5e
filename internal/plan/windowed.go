package plan

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/stats"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// WindowedPlan realizes the paper's future-work extension (§VI): offline
// plans that account for *time-dependent* expected demand. The demand
// cycle (e.g. a diurnal period) is divided into W windows; each window
// gets its own PLAN-VNE solution built from the history slots falling into
// that window position. The online engine swaps plans at window
// boundaries (Engine.SwapPlan).
type WindowedPlan struct {
	// Period is the demand cycle length in slots.
	Period int
	// Plans holds one plan per window; window w covers cycle positions
	// [w·Period/W, (w+1)·Period/W).
	Plans []*Plan
}

// Windows returns the number of windows W.
func (wp *WindowedPlan) Windows() int { return len(wp.Plans) }

// At returns the plan governing absolute slot t.
func (wp *WindowedPlan) At(t int) *Plan {
	if len(wp.Plans) == 0 {
		return nil
	}
	pos := t % wp.Period
	if pos < 0 {
		pos += wp.Period
	}
	w := pos * len(wp.Plans) / wp.Period
	if w >= len(wp.Plans) {
		w = len(wp.Plans) - 1
	}
	return wp.Plans[w]
}

// WindowOf returns the window index governing absolute slot t.
func (wp *WindowedPlan) WindowOf(t int) int {
	pos := t % wp.Period
	if pos < 0 {
		pos += wp.Period
	}
	w := pos * len(wp.Plans) / wp.Period
	if w >= len(wp.Plans) {
		w = len(wp.Plans) - 1
	}
	return w
}

// BuildWindowed aggregates the history per window position within the
// demand cycle and solves one PLAN-VNE instance per window. The history
// should span at least one full period (more periods give each window
// more samples).
func BuildWindowed(g *graph.Graph, apps []*vnet.App, hist *workload.Trace, period, windows int, opts Options, rng *rand.Rand) (*WindowedPlan, error) {
	if hist == nil || hist.Slots <= 0 {
		return nil, errors.New("plan: empty history")
	}
	if period <= 0 || period > hist.Slots {
		return nil, fmt.Errorf("plan: period %d outside (0,%d]", period, hist.Slots)
	}
	if windows < 1 || windows > period {
		return nil, fmt.Errorf("plan: windows %d outside [1,%d]", windows, period)
	}

	series, err := activeDemandSeries(hist, len(apps))
	if err != nil {
		return nil, err
	}

	// Consume the rng in canonical class order, not map order: each
	// class's bootstrap must draw the same stream no matter how the map
	// iterates, or windowed plans (and everything downstream) vary run
	// to run — the same hazard Aggregate guards against.
	keys := make([]classKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].ingress < keys[j].ingress
	})

	solver := NewSolver(g, apps) // shared warm state across all windows
	wp := &WindowedPlan{Period: period, Plans: make([]*Plan, windows)}
	for w := 0; w < windows; w++ {
		lo := w * period / windows
		hi := (w + 1) * period / windows
		var classes []Class
		for _, key := range keys {
			s := series[key]
			// Collect the slots whose cycle position falls in
			// window w.
			var sub []float64
			for t := 0; t < hist.Slots; t++ {
				if pos := t % period; pos >= lo && pos < hi {
					sub = append(sub, s[t])
				}
			}
			if len(sub) == 0 {
				continue
			}
			est, err := stats.BootstrapQuantile(sub, opts.Alpha, opts.BootstrapB, rng)
			if err != nil {
				return nil, err
			}
			if est.Estimate <= 0 {
				continue
			}
			classes = append(classes, Class{App: key.app, Ingress: key.ingress, Demand: est.Estimate})
		}
		sortClasses(classes)
		p, err := solver.Build(classes, opts)
		if err != nil {
			return nil, fmt.Errorf("plan: window %d: %w", w, err)
		}
		wp.Plans[w] = p
	}
	return wp, nil
}

// activeDemandSeries computes d(r̃,t) — the per-slot active demand of
// every (app, ingress) class (Eq. 5's grouping with R(t) activity).
func activeDemandSeries(hist *workload.Trace, numApps int) (map[classKey][]float64, error) {
	diffs, err := demandDeltas(hist, numApps)
	if err != nil {
		return nil, err
	}
	out := make(map[classKey][]float64, len(diffs))
	for k, d := range diffs {
		series := make([]float64, hist.Slots)
		activeDemand(d, series)
		out[k] = series
	}
	return out, nil
}
