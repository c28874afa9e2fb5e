package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/runner"
	"github.com/olive-vne/olive/internal/stats"
	"github.com/olive-vne/olive/internal/topo"
)

// parallelConfig is a minimal OLIVE+QUICKG configuration: big enough to
// exercise planning and the online phase, small enough to rep repeatedly
// in tests.
func parallelConfig(seed uint64) Config {
	c := QuickConfig(topo.CittaStudi, 1.0, seed)
	c.HistSlots = 80
	c.OnlineSlots = 30
	c.LambdaPerNode = 2
	c.MeasureFrom, c.MeasureTo = 5, 25
	c.PlanOptions.BootstrapB = 10
	c.PlanOptions.MaxPricingRounds = 2
	c.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG}
	return c
}

// runRepeatedSequential replicates the pre-runner sequential loop: one
// Run per rep, metrics appended in rep order. It is the reference the
// parallel path must match bit-for-bit on the deterministic metrics.
func runRepeatedSequential(t *testing.T, cfg Config, reps int) *RepeatedResult {
	t.Helper()
	acc := make(map[core.Algorithm]map[string][]float64)
	for rep := 0; rep < reps; rep++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(rep)
		rr, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for algo, ar := range rr.Results {
			m := acc[algo]
			if m == nil {
				m = map[string][]float64{}
				acc[algo] = m
			}
			m["rej"] = append(m["rej"], ar.RejectionRate)
			m["cost"] = append(m["cost"], ar.TotalCost)
			m["bal"] = append(m["bal"], ar.BalanceIndex)
		}
	}
	out := &RepeatedResult{
		Config: cfg, Reps: reps,
		Rejection: map[core.Algorithm]MetricSummary{},
		Cost:      map[core.Algorithm]MetricSummary{},
		Balance:   map[core.Algorithm]MetricSummary{},
		Runtime:   map[core.Algorithm]MetricSummary{},
	}
	for algo, m := range acc {
		out.Rejection[algo] = stats.Summarize(m["rej"])
		out.Cost[algo] = stats.Summarize(m["cost"])
		out.Balance[algo] = stats.Summarize(m["bal"])
	}
	return out
}

// requireSameDeterministicMetrics asserts exact (bit-for-bit) equality of
// the deterministic summaries. Runtime is wall clock and excluded.
func requireSameDeterministicMetrics(t *testing.T, want, got *RepeatedResult, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Rejection, got.Rejection) {
		t.Fatalf("%s: rejection summaries diverge:\nwant %+v\ngot  %+v", label, want.Rejection, got.Rejection)
	}
	if !reflect.DeepEqual(want.Cost, got.Cost) {
		t.Fatalf("%s: cost summaries diverge:\nwant %+v\ngot  %+v", label, want.Cost, got.Cost)
	}
	if !reflect.DeepEqual(want.Balance, got.Balance) {
		t.Fatalf("%s: balance summaries diverge:\nwant %+v\ngot  %+v", label, want.Balance, got.Balance)
	}
}

// TestRunSweepParallelMatchesSequential is the runner's determinism
// contract: for the same config and seed, the parallel runner's
// RepeatedResult equals the sequential loop's, for any worker count.
func TestRunSweepParallelMatchesSequential(t *testing.T) {
	cfg := parallelConfig(7)
	const reps = 3
	want := runRepeatedSequential(t, cfg, reps)
	for _, workers := range []int{1, 4} {
		got := sweepOne(t, cfg, reps, RunnerOptions{Workers: workers})
		requireSameDeterministicMetrics(t, want, got, "workers="+itoa(workers))
		if got.Reps != reps {
			t.Fatalf("reps = %d, want %d", got.Reps, reps)
		}
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// cancelAfterFirst is a Reporter that cancels the sweep context after the
// first completed cell.
type cancelAfterFirst struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelAfterFirst) Start(total, cached int)                           {}
func (c *cancelAfterFirst) Done(key string, elapsed time.Duration, err error) { c.once.Do(c.cancel) }
func (c *cancelAfterFirst) Finish(elapsed time.Duration)                      {}

// TestRunSweepCancelLeavesResumableStore cancels a sweep after its first
// cell, then resumes from the store and checks the final result equals an
// uninterrupted run.
func TestRunSweepCancelLeavesResumableStore(t *testing.T) {
	store, err := runner.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallelConfig(3)
	cfg.Algorithms = []core.Algorithm{core.AlgoQuickG} // no plan: fast cells
	cells := []SweepCell{{Config: cfg, Reps: 4}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunSweep(cells, RunnerOptions{
		Context: ctx, Workers: 1, Store: store, Resume: true,
		Reporter: &cancelAfterFirst{cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	n, err := store.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n >= 4 {
		t.Fatalf("store holds %d artifacts after early cancel, want partial progress", n)
	}

	resumed, err := RunSweep(cells, RunnerOptions{Workers: 2, Store: store, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunSweep(cells, RunnerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDeterministicMetrics(t, clean[0], resumed[0], "resumed")
}

// TestRunSweepResumeIsFullyCached reruns an identical sweep against its
// store and checks no cell is recomputed while results stay identical.
func TestRunSweepResumeIsFullyCached(t *testing.T) {
	store, err := runner.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallelConfig(11)
	cfg.Algorithms = []core.Algorithm{core.AlgoQuickG}
	cells := []SweepCell{{Config: cfg, Reps: 2}}

	first, err := RunSweep(cells, RunnerOptions{Workers: 2, Store: store, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := store.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("store holds %d artifacts, want 2", n)
	}
	t0 := time.Now()
	second, err := RunSweep(cells, RunnerOptions{Workers: 2, Store: store, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDeterministicMetrics(t, first[0], second[0], "cached rerun")
	// Cached reruns must not redo simulation work; generous bound to
	// stay robust on slow CI.
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cached rerun took %s — cells were recomputed", elapsed)
	}
}

func TestCellKeyIsPositionalAndCanonical(t *testing.T) {
	cfg := parallelConfig(5)
	k0a, err := cellKey(cfg, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	k0b, err := cellKey(cfg, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if k0a != k0b {
		t.Fatal("cell key not deterministic")
	}
	k1, err := cellKey(cfg, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if k0a == k1 {
		t.Fatal("distinct reps share a cell key")
	}
	// rep seeds are positional: cfg.Seed+1 at rep 0 is the same cell as
	// cfg.Seed at rep 1.
	shifted := cfg
	shifted.Seed = cfg.Seed + 1
	kShifted, err := cellKey(shifted, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if kShifted != k1 {
		t.Fatal("cell identity depends on rep index, not the resolved seed")
	}
	// Config changes change the key.
	changed := cfg
	changed.Utilization = 1.2
	kChanged, err := cellKey(changed, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if kChanged == k0a {
		t.Fatal("config change did not change the cell key")
	}
}
