// Package olive's root benchmarks measure the experiment runner, the
// ablations called out in DESIGN.md §6, the time-varying plan extension
// and the core machinery (plan construction, per-request processing).
// The paper's tables and figures are registered scenarios; regenerate
// them with cmd/vnesim (-exp NAME, or -exp all).
package olive_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/sim"
	"github.com/olive-vne/olive/internal/topo"
)

// BenchmarkRunnerParallelVsSequential measures the experiment runner's
// fan-out: the same 8-cell sweep (2 utilizations × 4 reps) with 1 worker
// versus GOMAXPROCS workers. On an N-core machine the parallel
// sub-benchmark's ns/op approaches 1/N of the sequential one; the results
// are bit-identical either way (the runner's determinism contract, proven
// by TestRunSweepParallelMatchesSequential).
func BenchmarkRunnerParallelVsSequential(b *testing.B) {
	sweepCells := func() []sim.SweepCell {
		cells := make([]sim.SweepCell, 0, 2)
		for _, u := range []float64{0.8, 1.2} {
			cfg := sim.QuickConfig(topo.CittaStudi, u, 1)
			cfg.HistSlots = 100
			cfg.OnlineSlots = 40
			cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG}
			cells = append(cells, sim.SweepCell{Config: cfg, Reps: 4})
		}
		return cells
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	} else {
		workerCounts = append(workerCounts, 2) // single-core: measures overhead only
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunSweep(sweepCells(), sim.RunnerOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §6) ---

func ablationConfig(seed uint64) sim.Config {
	cfg := sim.QuickConfig(topo.Iris, 1.4, seed)
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE}
	return cfg
}

// BenchmarkAblationColumnGen compares the plan LP solved with column
// generation against seed (collocated-only) columns.
func BenchmarkAblationColumnGen(b *testing.B) {
	for _, pricing := range []int{0, 8} {
		name := "seed-only"
		if pricing > 0 {
			name = "priced"
		}
		b.Run(name, func(b *testing.B) {
			var lastRej float64
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(uint64(i + 1))
				cfg.PlanOptions.MaxPricingRounds = pricing
				rr, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastRej = rr.Results[core.AlgoOLIVE].RejectionRate
			}
			b.ReportMetric(lastRej, "rejection")
		})
	}
}

// BenchmarkAblationPreemption measures OLIVE with PREEMPT disabled.
func BenchmarkAblationPreemption(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "preempt-on"
		if disable {
			name = "preempt-off"
		}
		b.Run(name, func(b *testing.B) {
			var lastRej float64
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(uint64(i + 1))
				cfg.EngineOptions.DisablePreemption = disable
				rr, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastRej = rr.Results[core.AlgoOLIVE].RejectionRate
			}
			b.ReportMetric(lastRej, "rejection")
		})
	}
}

// BenchmarkAblationBorrowing measures OLIVE with the partial-fit
// (borrowing) mechanism disabled.
func BenchmarkAblationBorrowing(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "borrow-on"
		if disable {
			name = "borrow-off"
		}
		b.Run(name, func(b *testing.B) {
			var lastRej float64
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(uint64(i + 1))
				cfg.EngineOptions.DisableBorrowing = disable
				rr, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastRej = rr.Results[core.AlgoOLIVE].RejectionRate
			}
			b.ReportMetric(lastRej, "rejection")
		})
	}
}

// BenchmarkAblationPercentile compares P̂80 aggregation against full-peak
// P̂100 planning (the paper argues P80 avoids over-provisioning).
func BenchmarkAblationPercentile(b *testing.B) {
	for _, alpha := range []float64{0.8, 1.0} {
		name := "P80"
		if alpha == 1.0 {
			name = "P100"
		}
		b.Run(name, func(b *testing.B) {
			var lastRej float64
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(uint64(i + 1))
				cfg.PlanOptions.Alpha = alpha
				rr, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastRej = rr.Results[core.AlgoOLIVE].RejectionRate
			}
			b.ReportMetric(lastRej, "rejection")
		})
	}
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkPlanBuild measures PLAN-VNE construction alone (§IV-B notes
// the planning phase is solved once and scales independently of the
// request rate).
func BenchmarkPlanBuild(b *testing.B) {
	cfg := sim.QuickConfig(topo.Iris, 1.0, 1)
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE}
	rr, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	classes := make([]plan.Class, len(rr.Plan.Classes))
	for i, cp := range rr.Plan.Classes {
		classes[i] = cp.Class
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Build(rr.Substrate, rr.Apps, classes, plan.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePerRequest measures OLIVE's per-request processing rate —
// the paper's scalability headline (≥1000 requests/s per slot).
func BenchmarkOnlinePerRequest(b *testing.B) {
	cfg := sim.QuickConfig(topo.Random100, 1.0, 1)
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE}
	rr, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	requests := 0
	for _, rec := range rr.Results[core.AlgoOLIVE].Log {
		_ = rec
		requests++
	}
	if requests == 0 {
		b.Fatal("no requests processed")
	}
	perReq := rr.Results[core.AlgoOLIVE].Runtime.Seconds() / float64(requests)
	b.ReportMetric(1/perReq, "req/s")
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 2)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionTimeVaryingPlan evaluates the §VI future-work
// extension implemented here: per-window plans on a diurnal CAIDA-like
// trace, against a single flat plan.
func BenchmarkExtensionTimeVaryingPlan(b *testing.B) {
	for _, windows := range []int{1, 4} {
		name := "flat"
		if windows > 1 {
			name = "windowed-4"
		}
		b.Run(name, func(b *testing.B) {
			var lastRej float64
			for i := 0; i < b.N; i++ {
				cfg := sim.QuickConfig(topo.Iris, 1.2, uint64(i+1))
				cfg.Trace = sim.TraceCAIDA
				cfg.DiurnalPeriod = 60
				if windows > 1 {
					cfg.PlanWindows = windows
				}
				cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE}
				rr, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastRej = rr.Results[core.AlgoOLIVE].RejectionRate
			}
			b.ReportMetric(lastRej, "rejection")
		})
	}
}
