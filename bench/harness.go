package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/plan"
)

// bench is one workload. The harness calls setup several times (to take
// the median set-up time; each call replaces what the last one built),
// then run once per measured region, then close.
type bench interface {
	// setup builds every input from the seed and whatever must exist
	// before the first operation can be served.
	setup(seed uint64) error
	// run executes the workload's warm-up and then its timed region for
	// about budget, on fresh state. With a tracer it records spans around
	// each call into a layer and fills result.layer.
	run(budget time.Duration, tr *tracer) (*result, error)
	// probe times isolated calls into single layers on inputs drawn from
	// the workload (traced runs only), spending about budget on each.
	probe(m map[string]float64, budget time.Duration)
	close()
}

// result is what one measured region produced.
type result struct {
	attempted, failed int
	// passOps holds operations per second, one value per timed pass.
	passOps []float64
	// passNS holds, per timed pass, the latency of the workload's unit
	// operation in nanoseconds: one plan build, one time slot's arrivals,
	// one HTTP round trip. Every pass does the same work, so the run takes
	// each pass's percentiles and reports their medians over passes: a
	// stretch in which the host was busy with something else then costs the
	// passes it hit, not the result, where it would shift a percentile of
	// the pooled sample.
	passNS [][]float64
	// tail is the percentile op_tail_us reports: the highest the workload
	// is sure to have ten samples beyond over its passes, whatever the
	// host's speed (the minimum number of passes guarantees them; only a
	// smoke-scale run can fall short, and then reports the median).
	tail float64
	// rejectRatio is the share of offered work not served: demand the
	// plan rejects, or requests rejected or preempted.
	rejectRatio float64
	// digest fingerprints the outputs; it must be equal across passes and
	// between the untraced and the traced region.
	digest uint64
	// layer holds per-layer metrics measured inside the region.
	layer map[string]float64
}

// scale sizes a workload; smoke is for the tests.
type scale int

const (
	scaleFull scale = iota
	scaleSmoke
)

func pick[T any](sc scale, full, smoke T) T {
	if sc == scaleSmoke {
		return smoke
	}
	return full
}

// passLoop runs one untimed warm-up pass and then timed passes until
// budget is spent, at least minPasses of them. A forced collection
// precedes the timed region so that no pass pays for the garbage of
// set-up.
func passLoop(budget time.Duration, minPasses int, pass func(timed bool) error) error {
	if err := pass(false); err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		if err := pass(true); err != nil {
			return err
		}
	}
	return nil
}

// counters snapshots the process-wide counters the lp and plan packages
// keep.
type counters struct {
	lp   lp.CountersSnapshot
	plan plan.CountersSnapshot
}

func readCounters() counters { return counters{lp: lp.Stats(), plan: plan.Stats()} }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics turns a before/after pair into the count metrics of the
// lp and plan layers, per pass.
func counterMetrics(m map[string]float64, a, b counters, passes int) {
	per := func(x, y int64) float64 { return float64(y-x) / float64(max(passes, 1)) }
	m["lp.solves"] = per(a.lp.Solves, b.lp.Solves)
	m["lp.pivots"] = per(a.lp.Pivots, b.lp.Pivots)
	m["lp.refactorizations"] = per(a.lp.Refactorizations, b.lp.Refactorizations)
	m["lp.pricing_scans"] = per(a.lp.PricingScans, b.lp.PricingScans)
	m["lp.warm_hit_ratio"] = ratio(b.lp.WarmHits-a.lp.WarmHits, b.lp.WarmAttempts-a.lp.WarmAttempts)
	m["plan.master_solves"] = per(a.plan.MasterSolves, b.plan.MasterSolves)
	m["plan.warm_hit_ratio"] = ratio(b.plan.WarmHits-a.plan.WarmHits, b.plan.WarmAttempts-a.plan.WarmAttempts)
	m["plan.price_oracle_calls"] = per(a.plan.PriceOracleCalls, b.plan.PriceOracleCalls)
	m["plan.price_pool_hits"] = per(a.plan.PricePoolHits, b.plan.PricePoolHits)
}

// fnv1a folds v into a running 64-bit FNV-1a hash.
func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// timeBatches calls fn in batches of n until budget is spent (at least
// minBatches of them) and returns the median time of one call, in
// nanoseconds.
func timeBatches(budget time.Duration, minBatches, n int, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < minBatches || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("output check failed: "+format, args...)
}

func nearlyEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
