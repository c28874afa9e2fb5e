package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/runner"
	"github.com/olive-vne/olive/internal/stats"
)

// RunnerOptions configures the parallel experiment runner. The zero value
// is ready to use: GOMAXPROCS workers, no artifact store, no progress
// output.
type RunnerOptions struct {
	// Context cancels the sweep. With a Store attached, cells completed
	// before cancellation stay persisted, so a rerun with Resume picks
	// up where the sweep stopped. Nil means context.Background.
	Context context.Context
	// Workers bounds the parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Store, when non-nil, persists each completed (config, rep) cell
	// as a versioned JSON artifact.
	Store *runner.Store
	// Resume additionally reads the Store: cells whose artifact already
	// exists are loaded instead of recomputed.
	Resume bool
	// Reporter, when non-nil, observes per-cell progress and ETA.
	Reporter runner.Reporter
}

// SweepCell is one aggregation unit of a sweep: a configuration repeated
// Reps times (seeds Config.Seed, Config.Seed+1, …) and summarized with
// 95% confidence intervals.
type SweepCell struct {
	Config Config
	Reps   int
	// Tag, when set, namespaces the cell's artifacts (scenario runs pass
	// scenario.Spec.Tag(): name@spechash). Cells from different scenarios
	// never share artifacts even when their configurations coincide, and
	// editing a spec invalidates its cached cells.
	Tag string
}

// cellSchema versions the cell key and artifact layout; bump it whenever
// Config or repArtifact changes shape — or when a code change alters the
// numbers a given Config produces — so stale stores miss instead of
// resuming with results the current code would not reproduce. v2:
// windowed-plan builds became deterministic (canonical rng order), so any
// v1 artifact from a PlanWindows config is unreproducible. v3: the key
// gained a scenario tag slot (name@spechash), ending cross-experiment
// collisions in shared -out directories.
const cellSchema = "olive/sim-cell/v3"

// repMetrics is one algorithm's persisted outcome in one rep: exactly the
// headline metrics RepeatedResult aggregates.
type repMetrics struct {
	Rejection  float64 `json:"rejection"`
	Cost       float64 `json:"cost"`
	Balance    float64 `json:"balance"`
	RuntimeSec float64 `json:"runtimeSec"`
}

// repArtifact is the persisted outcome of one (config, rep) cell — small
// and resumable, unlike the full RunResult with its substrate and plan.
// Algorithms preserves the configured order for canonical aggregation.
type repArtifact struct {
	Algorithms []core.Algorithm              `json:"algorithms"`
	Metrics    map[core.Algorithm]repMetrics `json:"metrics"`
}

// cellKey canonically encodes one rep's complete configuration plus the
// scenario tag it runs under. Identical cells of the same scenario share
// artifacts across sweeps and processes; any config or spec change yields
// a new key — a recompute, never a stale hit. The seed is part of the
// key, so a cell's identity is positional (cfg.Seed + rep), independent
// of execution order.
func cellKey(cfg Config, rep int, tag string) (string, error) {
	c := cfg
	c.normalize()
	c.Seed = cfg.Seed + uint64(rep)
	c.EngineOptions.Plan = nil // rebuilt inside Run; not part of the identity
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("sim: cell key: %w", err)
	}
	return cellSchema + "|" + tag + "|" + string(b), nil
}

// cellLabel is the short display name of one rep for progress lines and
// errors; the full identity lives in the cell key. A scenario tag
// contributes its name (the hash stays in the key).
func cellLabel(cfg Config, tag string) string {
	c := cfg
	c.normalize()
	label := fmt.Sprintf("%s u=%g λ=%g %s seed=%d", c.Topology, c.Utilization, c.LambdaPerNode, c.Trace, c.Seed)
	if name, _, ok := strings.Cut(tag, "@"); ok && name != "" {
		label = name + " " + label
	}
	return label
}

// artifactOf extracts the persisted metrics from one run.
func artifactOf(cfg Config, rr *RunResult) repArtifact {
	c := cfg
	c.normalize()
	a := repArtifact{
		Algorithms: c.Algorithms,
		Metrics:    make(map[core.Algorithm]repMetrics, len(rr.Results)),
	}
	for algo, ar := range rr.Results {
		a.Metrics[algo] = repMetrics{
			Rejection:  ar.RejectionRate,
			Cost:       ar.TotalCost,
			Balance:    ar.BalanceIndex,
			RuntimeSec: ar.Runtime.Seconds(),
		}
	}
	return a
}

// RunSweep fans the cells' reps out across the worker pool and returns one
// aggregated RepeatedResult per cell, in cell order. Aggregation is
// canonicalized — rep order within a cell, configured algorithm order
// within a rep — so the deterministic metrics (rejection, cost, balance)
// are identical to a sequential loop of Run calls for any worker count.
// Only the wall-clock Runtime summaries vary between executions.
func RunSweep(cells []SweepCell, opts RunnerOptions) ([]*RepeatedResult, error) {
	jobs := make([]runner.Job[repArtifact], 0, len(cells))
	for _, cell := range cells {
		if cell.Reps <= 0 {
			return nil, errors.New("sim: reps must be positive")
		}
		for rep := 0; rep < cell.Reps; rep++ {
			key, err := cellKey(cell.Config, rep, cell.Tag)
			if err != nil {
				return nil, err
			}
			runCfg := cell.Config
			runCfg.Seed = cell.Config.Seed + uint64(rep)
			jobs = append(jobs, runner.Job[repArtifact]{
				Key:   key,
				Label: cellLabel(runCfg, cell.Tag),
				Run: func(context.Context) (repArtifact, error) {
					rr, err := Run(runCfg)
					if err != nil {
						return repArtifact{}, err
					}
					return artifactOf(runCfg, rr), nil
				},
			})
		}
	}

	out, err := runner.All(opts.Context, jobs, runner.Options{
		Workers:  opts.Workers,
		Store:    opts.Store,
		Resume:   opts.Resume,
		Reporter: opts.Reporter,
	})
	if err != nil {
		return nil, err
	}

	results := make([]*RepeatedResult, len(cells))
	next := 0
	for ci, cell := range cells {
		arts := make([]repArtifact, cell.Reps)
		for rep := 0; rep < cell.Reps; rep++ {
			arts[rep] = out[next].Value
			next++
		}
		results[ci] = aggregateCell(cell, arts)
	}
	return results, nil
}

// runTableCell executes one full simulation through the runner —
// cancellation, panic isolation, progress reporting — and caches the
// derived table (not the heavyweight RunResult) in the artifact store, so
// single-run detail scenarios (Fig. 8, Fig. 12) participate in
// -out/-resume like sweep cells do. tag is the owning scenario's
// name@spechash (scenario.Spec.Tag).
func runTableCell(tag string, cfg Config, opts RunnerOptions, build func(*RunResult) (*Table, error)) (*Table, error) {
	key, err := cellKey(cfg, 0, tag)
	if err != nil {
		return nil, err
	}
	jobs := []runner.Job[*Table]{{
		Key:   key,
		Label: cellLabel(cfg, tag),
		Run: func(context.Context) (*Table, error) {
			rr, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			return build(rr)
		},
	}}
	out, err := runner.All(opts.Context, jobs, runner.Options{
		Workers:  opts.Workers,
		Store:    opts.Store,
		Resume:   opts.Resume,
		Reporter: opts.Reporter,
	})
	if err != nil {
		return nil, err
	}
	return out[0].Value, nil
}

// aggregateCell summarizes one cell's reps, appending metrics in rep
// order per algorithm — the same order the sequential loop produced.
func aggregateCell(cell SweepCell, arts []repArtifact) *RepeatedResult {
	type series struct{ rej, cost, bal, rt []float64 }
	per := make(map[core.Algorithm]*series)
	for _, a := range arts {
		for _, algo := range a.Algorithms {
			s := per[algo]
			if s == nil {
				s = &series{}
				per[algo] = s
			}
			m := a.Metrics[algo]
			s.rej = append(s.rej, m.Rejection)
			s.cost = append(s.cost, m.Cost)
			s.bal = append(s.bal, m.Balance)
			s.rt = append(s.rt, m.RuntimeSec)
		}
	}
	res := &RepeatedResult{
		Config: cell.Config, Reps: cell.Reps,
		Rejection: map[core.Algorithm]MetricSummary{},
		Cost:      map[core.Algorithm]MetricSummary{},
		Balance:   map[core.Algorithm]MetricSummary{},
		Runtime:   map[core.Algorithm]MetricSummary{},
	}
	for algo, s := range per {
		res.Rejection[algo] = stats.Summarize(s.rej)
		res.Cost[algo] = stats.Summarize(s.cost)
		res.Balance[algo] = stats.Summarize(s.bal)
		res.Runtime[algo] = stats.Summarize(s.rt)
	}
	return res
}
