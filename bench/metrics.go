package main

// metricDef names one reported metric. The tables below are the single
// list of names: BENCHMARK.json repeats them (a test keeps the two equal)
// and every later performance claim uses them.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; the workload decides what the unit operation is:
//
//	plan-cold-r100     one plan.Aggregate + Solver.Build (a plan, from a request history)
//	online-olive-r100  one request through core.Engine; latency per time slot of arrivals
//	online-fullg-iris  the same
//	serve-drift-iris   one POST /v1/embed round trip
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"reject_ratio", "ratio", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured in the traced run, from the benchmark's side of
// each layer's exported calls. A metric a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	{name: "lp.solves", unit: "count", better: "lower"},
	{name: "lp.pivots", unit: "count", better: "lower"},
	{name: "lp.refactorizations", unit: "count", better: "lower"},
	{name: "lp.pricing_scans", unit: "count", better: "lower"},
	{name: "lp.warm_hit_ratio", unit: "ratio", better: "higher"},
	{name: "lp.solve_fixture_ms", unit: "ms", better: "lower"},
	{name: "lp.cpu_share", unit: "ratio", better: "lower"},

	{name: "plan.aggregate_ms", unit: "ms", better: "lower"},
	{name: "plan.build_ms", unit: "ms", better: "lower"},
	{name: "plan.master_solves", unit: "count", better: "lower"},
	{name: "plan.warm_hit_ratio", unit: "ratio", better: "higher"},
	{name: "plan.price_oracle_calls", unit: "count", better: "lower"},
	{name: "plan.price_pool_hits", unit: "count", better: "higher"},
	{name: "plan.pricing_rounds", unit: "count", better: "lower"},
	{name: "plan.objective", unit: "cost", better: "lower"},
	{name: "plan.lookup_ns", unit: "ns", better: "lower"},
	{name: "plan.cpu_share", unit: "ratio", better: "lower"},

	{name: "embedder.mincost_us", unit: "us", better: "lower"},
	{name: "embedder.best_collocated_us", unit: "us", better: "lower"},
	{name: "embedder.cpu_share", unit: "ratio", better: "lower"},

	{name: "graph.dijkstra_us", unit: "us", better: "lower"},
	{name: "graph.cpu_share", unit: "ratio", better: "lower"},

	{name: "substrate.tree_refresh_us", unit: "us", better: "lower"},
	{name: "substrate.view_us", unit: "us", better: "lower"},
	{name: "substrate.cpu_share", unit: "ratio", better: "lower"},

	{name: "core.process_p50_ns", unit: "ns", better: "lower"},
	{name: "core.process_p99_ns", unit: "ns", better: "lower"},
	{name: "core.startslot_us", unit: "us", better: "lower"},
	{name: "core.planned_ratio", unit: "ratio", better: "higher"},
	{name: "core.preempted_per_kreq", unit: "count", better: "lower"},
	{name: "core.allocs_per_req", unit: "count", better: "lower"},
	{name: "core.bytes_per_req", unit: "B", better: "lower"},
	{name: "core.cpu_share", unit: "ratio", better: "lower"},

	{name: "serve.handler_p50_us", unit: "us", better: "lower"},
	{name: "serve.handler_p99_us", unit: "us", better: "lower"},
	{name: "serve.transport_p50_us", unit: "us", better: "lower"},
	{name: "serve.queue_wait_us", unit: "us", better: "lower"},
	{name: "serve.solve_us", unit: "us", better: "lower"},
	{name: "serve.swap_us", unit: "us", better: "lower"},
	{name: "serve.replan_ms", unit: "ms", better: "lower"},
	{name: "serve.adopt_ms", unit: "ms", better: "lower"},
	{name: "serve.rtt_p999_us", unit: "us", better: "lower"},
	{name: "serve.rtt_p9999_us", unit: "us", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.allocs_per_req", unit: "count", better: "lower"},
	{name: "serve.cpu_share", unit: "ratio", better: "lower"},
	{name: "nethttp.cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.cpu_share", unit: "ratio", better: "lower"},

	{name: "obs.scrape_ms", unit: "ms", better: "lower"},
	{name: "obs.cpu_share", unit: "ratio", better: "lower"},

	{name: "workload.generate_ms", unit: "ms", better: "lower"},
	{name: "topo.build_ms", unit: "ms", better: "lower"},
	{name: "workload.cpu_share", unit: "ratio", better: "lower"},

	{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},
	{name: "other.cpu_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// workloadDef names one workload, why it exists and the GOMAXPROCS it
// runs under. The batch loops are one thread and leave the second CPU to
// the collector. The server runs on one: its round trip is a chain of
// hand-offs (caller, connection goroutine, shard goroutine and back), and
// with a second P every hand-off wakes an idle thread on an idle CPU —
// which on a shared host measures the hypervisor (under a busy neighbour,
// ten seeds: op_p50_us over a range of 27 % of its median against 4 %,
// ops_per_s quartiles 8.3 % apart against 3.6 %), and costs a sixth of the
// throughput besides.
type workloadDef struct {
	name, why string
	procs     int
	new       func(scale) bench
}

var workloads = []workloadDef{
	{"plan-cold-r100", "offline phase, cold: fresh Solver per history on 100n150e at 140% load; most CPU in lp; core and serve idle", 2, newPlanBench},
	{"online-olive-r100", "the paper's headline loop under overload: plan lookup, greedy fallback and preemption, and zero LP solves", 2, newOliveBench},
	{"online-fullg-iris", "same Engine entry points as FULLG: nearly all time in the embedder's exact DP and shortest-path trees", 2, newFullGBench},
	{"serve-drift-iris", "what a vnesimd operator sees: one closed-loop HTTP caller, drifting ingress, a warm replan every 8000 requests", 1, newServeBench},
}
