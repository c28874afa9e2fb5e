package serve

import (
	"strconv"

	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/obs"
	"github.com/olive-vne/olive/internal/plan"
)

// serverMetrics owns every metric family the server exports on
// GET /metrics. The split is deliberate:
//
//   - Anything the serving path already counts for /v1/stats (decisions,
//     sheds, queue depths, utilization, revenue, LP/plan counters) is
//     exported as a func-backed view over those same atomics. One source
//     of truth — /metrics and /v1/stats cannot disagree — and scraping
//     costs the hot path nothing.
//   - Distributions (latency histograms) are explicit instruments; the
//     per-request work is a handful of atomic adds, with labeled series
//     resolved once at construction. /v1/stats reads its latency
//     quantiles off vne_request_duration_seconds, the same way round.
//
// The catalog (see README "Observability" for the narrative version):
//
//	vne_build_info                       gauge   {algorithm,deterministic,shards}
//	vne_uptime_seconds                   gauge
//	vne_http_requests_total              counter {path,code}
//	vne_http_request_duration_seconds    histogram {path}
//	vne_decisions_total                  counter {shard,outcome}
//	vne_shed_total                       counter {reason}
//	vne_request_duration_seconds         histogram   (embed: enqueue→decision)
//	vne_queue_wait_seconds               histogram   (embed: submit→decision start; ≈0 on an idle shard)
//	vne_solve_duration_seconds           histogram   (embed: engine solve only)
//	vne_shard_queue_depth                gauge   {shard}
//	vne_shard_queue_capacity             gauge   {shard}
//	vne_shard_active_embeddings          gauge   {shard}
//	vne_shard_utilization                gauge   {shard}
//	vne_shards_routable                  gauge
//	vne_preemptions_total                counter
//	vne_releases_total                   counter
//	vne_revenue_total                    counter
//	vne_replan_generation                gauge
//	vne_replan_rebuilds_total            counter {outcome}
//	vne_replan_swap_duration_seconds     histogram   (publish → shard adoption)
//	vne_replan_history_depth             gauge
//	vne_ratelimit_tokens                 gauge   {scope}    (limiter enabled)
//	vne_lp_solves_total                  counter {start}
//	vne_lp_pivots_total                  counter
//	vne_lp_pivots_by_rule_total          counter {rule}     (devex, bland)
//	vne_lp_pricing_scans_total           counter
//	vne_lp_refactorizations_total        counter
//	vne_plan_builds_total                counter
//	vne_plan_warm_starts_total           counter {outcome}
//	vne_plan_pricing_total               counter {path}     (oracle)
type serverMetrics struct {
	reg *obs.Registry

	httpReqs *obs.CounterVec
	httpDur  *obs.HistogramVec

	reqDur    *obs.Histogram
	queueWait *obs.Histogram
	solveDur  *obs.Histogram
	swapDur   *obs.Histogram

	// Per-shard label-vec handles, kept so shards built after construction
	// (elastic grows) register the same series families.
	dec    *obs.CounterFuncVec
	depth  *obs.GaugeFuncVec
	capa   *obs.GaugeVec
	active *obs.GaugeFuncVec
	util   *obs.GaugeFuncVec
}

// shed reasons that are not limiter verdicts (those are limitGlobal and
// limitClient in limit.go).
const (
	shedQueueFull = "queue_full"
	shedDraining  = "draining"
)

// shardMetrics is the slice of serverMetrics a shard's decisions touch:
// the shared distribution instruments. Decision counts stay in the
// shard's own atomics; /metrics reads them at scrape time.
type shardMetrics struct {
	queueWait *obs.Histogram
	solveDur  *obs.Histogram
	swapDur   *obs.Histogram
}

// registerShard wires one shard into the per-shard metric families and
// hands it the shared instruments. Called at construction for the initial
// pool and again for every shard an elastic grow builds; series creation
// is concurrency-safe in obs, so a scrape racing a grow sees either the
// old or the new shard set, never a torn one.
func (m *serverMetrics) registerShard(sh *shard) {
	label := strconv.Itoa(sh.idx)
	m.dec.With(func() float64 { return float64(sh.accepted.Load()) }, label, "accepted")
	m.dec.With(func() float64 { return float64(sh.rejected.Load()) }, label, "rejected")
	m.depth.With(func() float64 { return float64(sh.waiting.Load()) }, label)
	m.capa.With(label).Set(float64(sh.depth))
	m.active.With(func() float64 { return float64(sh.active.Load()) }, label)
	m.util.With(func() float64 { return sh.utilization() }, label)
	sh.met = &shardMetrics{queueWait: m.queueWait, solveDur: m.solveDur, swapDur: m.swapDur}
}

// newServerMetrics registers every family on reg and wires the
// scrape-time views onto the server's shards and the lp/plan counters.
// Called once from New, after shards and limiter exist.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}

	det := "false"
	if s.opts.Deterministic {
		det = "true"
	}
	reg.GaugeVec("vne_build_info",
		"Constant 1, labeled with the server configuration.",
		"algorithm", "deterministic", "shards").
		With(string(s.opts.Algorithm), det, strconv.Itoa(s.opts.Shards)).Set(1)
	reg.GaugeFunc("vne_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return s.uptime().Seconds() })

	m.httpReqs = reg.CounterVec("vne_http_requests_total",
		"HTTP requests by route pattern and status code.",
		"path", "code")
	m.httpDur = reg.HistogramVec("vne_http_request_duration_seconds",
		"End-to-end HTTP handler latency by route pattern.",
		obs.LatencyBuckets(), "path")

	m.dec = reg.CounterFuncVec("vne_decisions_total",
		"Embedding decisions by shard and outcome.",
		"shard", "outcome")
	m.depth = reg.GaugeFuncVec("vne_shard_queue_depth",
		"Requests currently queued per shard.", "shard")
	m.capa = reg.GaugeVec("vne_shard_queue_capacity",
		"Bounded queue capacity per shard.", "shard")
	m.active = reg.GaugeFuncVec("vne_shard_active_embeddings",
		"Live embeddings per shard.", "shard")
	m.util = reg.GaugeFuncVec("vne_shard_utilization",
		"Allocated fraction of the shard's capacity slice.", "shard")
	reg.GaugeFunc("vne_shards_routable",
		"Shards currently in the routing table (retired shards excluded).",
		func() float64 { return float64(len(s.routeShards())) })

	// All four shed reasons are registered up front, so a scrape shows
	// the full shape (at zero) before the first shed.
	shed := reg.CounterFuncVec("vne_shed_total",
		"Requests shed before reaching an engine, by reason.",
		"reason")
	shed.With(func() float64 { return float64(s.queueShed()) }, shedQueueFull)
	shed.With(func() float64 { return float64(s.shedGlobal.Load()) }, string(limitGlobal))
	shed.With(func() float64 { return float64(s.shedClient.Load()) }, string(limitClient))
	shed.With(func() float64 { return float64(s.shedDraining.Load()) }, shedDraining)

	m.reqDur = reg.Histogram("vne_request_duration_seconds",
		"Embed decision latency, enqueue to decision (end-to-end).",
		obs.LatencyBuckets())
	m.queueWait = reg.Histogram("vne_queue_wait_seconds",
		"Time an embed op waits for its shard before its decision starts (about 0 on an idle shard).",
		obs.LatencyBuckets())
	m.solveDur = reg.Histogram("vne_solve_duration_seconds",
		"Engine solve time alone, excluding queueing and HTTP.",
		obs.LatencyBuckets())
	m.swapDur = reg.Histogram("vne_replan_swap_duration_seconds",
		"Plan hot-swap latency: generation publish to shard adoption.",
		obs.LatencyBuckets())
	for _, sh := range s.allShards() {
		m.registerShard(sh)
	}

	reg.CounterFunc("vne_preemptions_total",
		"Embeddings evicted to make room for arriving requests.",
		func() float64 {
			var t int64
			for _, sh := range s.allShards() {
				t += sh.preempted.Load()
			}
			return float64(t)
		})
	reg.CounterFunc("vne_releases_total",
		"Embeddings released early via DELETE /v1/embeddings/{id}.",
		func() float64 {
			var t int64
			for _, sh := range s.allShards() {
				t += sh.released.Load()
			}
			return float64(t)
		})
	reg.CounterFunc("vne_revenue_total",
		"Sum of demand times duration over accepted requests.",
		s.revenue)

	// Replan families register unconditionally (reading 0 with replanning
	// off), so dashboards and the vneload -require check see a stable
	// catalog on every configuration.
	reg.GaugeFunc("vne_replan_generation",
		"Published plan generation (0 = construction plan).",
		func() float64 { return float64(s.planGen.Load()) })
	reg.GaugeFunc("vne_replan_history_depth",
		"Requests currently retained in the rolling replan history.",
		func() float64 { return float64(s.historyDepth()) })
	rebuilds := reg.CounterFuncVec("vne_replan_rebuilds_total",
		"Replan triggers by outcome: ok published a generation, failed "+
			"errored in the solver, skipped lacked history.",
		"outcome")
	rebuilds.With(func() float64 {
		if s.replan == nil {
			return 0
		}
		return float64(s.replan.rebuilds.Load())
	}, "ok")
	rebuilds.With(func() float64 {
		if s.replan == nil {
			return 0
		}
		return float64(s.replan.failed.Load())
	}, "failed")
	rebuilds.With(func() float64 {
		if s.replan == nil {
			return 0
		}
		return float64(s.replan.skipped.Load())
	}, "skipped")

	if s.limiter != nil {
		reg.GaugeFuncVec("vne_ratelimit_tokens",
			"Token-bucket fill level.", "scope").
			With(s.limiter.globalTokens, "global")
	}

	// LP and plan solve counters are package-wide (the daemon owns the
	// process, so process counters are server counters); exported as
	// scrape-time views so the solver packages stay observability-free.
	solves := reg.CounterFuncVec("vne_lp_solves_total",
		"Completed LP solves by start mode.", "start")
	solves.With(func() float64 { return float64(lp.Stats().WarmHits) }, "warm")
	solves.With(func() float64 {
		st := lp.Stats()
		return float64(st.Solves - st.WarmHits)
	}, "cold")
	reg.CounterFunc("vne_lp_pivots_total",
		"Total simplex pivots across all LP solves.",
		func() float64 { return float64(lp.Stats().Pivots) })
	pivotsBy := reg.CounterFuncVec("vne_lp_pivots_by_rule_total",
		"Simplex pivots by the pricing rule that chose the entering column "+
			"(devex, or bland — the anti-cycling fallback).", "rule")
	pivotsBy.With(func() float64 { return float64(lp.Stats().PivotsDevex) }, "devex")
	pivotsBy.With(func() float64 { return float64(lp.Stats().PivotsBland) }, "bland")
	reg.CounterFunc("vne_lp_pricing_scans_total",
		"Nonbasic columns examined by simplex pricing — the scan work "+
			"partial pricing exists to cut.",
		func() float64 { return float64(lp.Stats().PricingScans) })
	reg.CounterFunc("vne_lp_refactorizations_total",
		"Total basis LU refactorizations across all LP solves.",
		func() float64 { return float64(lp.Stats().Refactorizations) })
	reg.CounterFunc("vne_plan_builds_total",
		"Completed PLAN-VNE builds.",
		func() float64 { return float64(plan.Stats().Builds) })
	warm := reg.CounterFuncVec("vne_plan_warm_starts_total",
		"Plan master-LP warm-start attempts by outcome.", "outcome")
	warm.With(func() float64 { return float64(plan.Stats().WarmHits) }, "hit")
	warm.With(func() float64 {
		st := plan.Stats()
		return float64(st.WarmAttempts - st.WarmHits)
	}, "miss")
	price := reg.CounterFuncVec("vne_plan_pricing_total",
		"Dantzig–Wolfe pricing decisions by path: oracle = exact min-cost "+
			"embed, one per class per column-generation round.", "path")
	price.With(func() float64 { return float64(plan.Stats().PriceOracleCalls) }, "oracle")

	return m
}
