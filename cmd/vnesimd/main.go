// Command vnesimd is the online embedding service: a long-running
// HTTP/JSON daemon that serves virtual-network embedding requests against
// live substrate state through a sharded engine pool (internal/serve).
//
// Server:
//
//	vnesimd -topo iris -algo olive -shards 4 -addr :8080
//	vnesimd -topo iris -algo quickg -shards 1 -deterministic -addr :8080
//
// The daemon builds the named topology and the paper's standard
// application mix from -seed. With -algo olive it first generates an MMPP
// request history (-util, -hist-slots, -lambda) and solves PLAN-VNE over
// it — the serving plan. SIGTERM/SIGINT drain gracefully: new requests
// get 503, admitted ones still receive their decision.
//
// Observability: GET /metrics serves Prometheus text (always on);
// -log-requests emits a structured access log to stderr; -rps/-burst and
// -client-rps/-client-burst put token-bucket admission control in front
// of the shard queues (429 + Retry-After); -debug-addr serves
// net/http/pprof on a separate listener, off by default.
//
// Replanning (olive only): -replan keeps a rolling request history
// (-replan-history requests) and rebuilds the serving plan from it —
// either on the -replan-interval cadence (real-time mode) or on demand
// via POST /v1/admin/replan (the only trigger in deterministic mode, so
// replay streams stay reproducible). Rebuilt plans hot-swap atomically:
// every shard adopts the new generation between two serialized
// decisions, and no request is ever dropped by a swap. GET /v1/plan
// reports the published generation and per-shard adoption.
//
// Client utilities (no server started):
//
//	vnesimd -gen-stream 200 -topo iris -seed 7 > stream.json
//	vnesimd -gen-stream 400 -drift -topo iris -seed 7 > drift.json
//	vnesimd -replay stream.json -addr http://localhost:8080
//
// -gen-stream writes a canned request stream drawn from the same MMPP
// workload model the simulator uses; with -drift the second half of the
// stream redraws every ingress uniformly — a traffic-pattern shift that
// makes the construction plan stale, which is what the replanning e2e
// exercises. -replay posts a stream sequentially and prints one
// canonical decision line per request, so two runs against a
// deterministic single-shard server diff byte-identical (this is what
// CI asserts).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/serve"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vnesimd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vnesimd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address, or target base URL with -replay")
	topoFlag := fs.String("topo", "iris", "substrate topology (iris, cittastudi, 5gen, 100n150e)")
	topoSeed := fs.Uint64("toposeed", 1, "topology construction seed")
	seed := fs.Uint64("seed", 1, "seed for the application mix, plan history and -gen-stream")
	algo := fs.String("algo", "olive", "embedding algorithm: olive, quickg, fullg")
	shards := fs.Int("shards", 1, "engine shards; each owns 1/N of the substrate capacity")
	queue := fs.Int("queue", 256, "per-shard queue depth (overflow answers 429)")
	slot := fs.Duration("slot", time.Second, "slot duration in real-time mode")
	deterministic := fs.Bool("deterministic", false, "virtual clock: slots advance only via request arrive fields")
	util := fs.Float64("util", 1.0, "plan-history target utilization (olive) and -gen-stream demand level")
	histSlots := fs.Int("hist-slots", 200, "plan-history length in slots (olive)")
	lambda := fs.Float64("lambda", 3, "plan-history arrivals per edge node per slot")
	genStream := fs.Int("gen-stream", 0, "generate a canned request stream of this many requests to stdout and exit")
	drift := fs.Bool("drift", false, "with -gen-stream: redraw every ingress in the second half (traffic drift)")
	replay := fs.String("replay", "", "post this stream file to -addr sequentially, print decision lines, exit")
	replan := fs.Bool("replan", false, "enable adaptive replanning (olive): rolling history + POST /v1/admin/replan")
	replanInterval := fs.Duration("replan-interval", 0, "replan cadence in real-time mode (0 = admin-triggered only; implies -replan)")
	replanHistory := fs.Int("replan-history", 4096, "rolling request-history capacity per shard for replanning")
	replanMin := fs.Int("replan-min", 64, "minimum history size before a replan trigger builds (below: 409)")
	rps := fs.Float64("rps", 0, "global admission rate limit in requests/second (0 = unlimited)")
	burst := fs.Float64("burst", 0, "global rate-limit burst (default max(rps, 1))")
	clientRPS := fs.Float64("client-rps", 0, "per-client admission rate limit (X-Client-ID keyed; 0 = unlimited)")
	clientBurst := fs.Float64("client-burst", 0, "per-client burst (default max(client-rps, 1))")
	logRequests := fs.Bool("log-requests", false, "emit one structured JSON access-log line per HTTP request to stderr")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (off when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tn topo.Name
	if err := tn.UnmarshalText([]byte(*topoFlag)); err != nil {
		return err
	}

	if *replay != "" {
		return runReplay(*addr, *replay)
	}

	g, err := topo.Build(tn, *topoSeed)
	if err != nil {
		return err
	}
	// The rng stream mirrors sim.Run: apps, then the history trace, then
	// the plan all consume one deterministic sequence derived from -seed.
	rng := rand.New(rand.NewPCG(*seed, 0x51f0))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)

	if *genStream > 0 {
		return runGenStream(os.Stdout, g, len(apps), *genStream, *util, *lambda, *seed, *drift)
	}

	opts := serve.Options{
		Shards:        *shards,
		Algorithm:     core.Algorithm(algoName(*algo)),
		SlotDuration:  *slot,
		Deterministic: *deterministic,
		Limits: serve.Limits{
			QueueDepth: *queue,
			RateLimit: serve.RateLimit{
				RPS:            *rps,
				Burst:          *burst,
				PerClientRPS:   *clientRPS,
				PerClientBurst: *clientBurst,
			},
		},
		Replan: serve.Replan{
			Enabled:      *replan || *replanInterval > 0,
			Interval:     *replanInterval,
			HistoryDepth: *replanHistory,
			MinHistory:   *replanMin,
			Seed:         *seed,
		},
	}
	if *logRequests {
		opts.Observability.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if opts.Algorithm == core.AlgoOLIVE {
		log.Printf("building PLAN-VNE plan: %s hist=%d slots λ=%g util=%g", tn, *histSlots, *lambda, *util)
		t0 := time.Now()
		p, err := buildPlan(g, apps, *util, *histSlots, *lambda, rng)
		if err != nil {
			return err
		}
		log.Printf("plan ready: %d classes in %s", len(p.Classes), time.Since(t0).Round(time.Millisecond))
		opts.Plan = p
	}

	s, err := serve.New(g, apps, opts)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	// The profiler gets its own listener so it is never reachable through
	// the service port (and never rate-limited or access-logged).
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: dmux}
		defer dbgSrv.Close()
		go func() {
			log.Printf("pprof debug listener on %s", *debugAddr)
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("vnesimd serving on %s: topo=%s algo=%s shards=%d deterministic=%v",
			*addr, tn, opts.Algorithm, *shards, *deterministic)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Print("signal received; draining")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return err
	}
	log.Print("drained; bye")
	return nil
}

// algoName canonicalizes the -algo flag to the core.Algorithm constants.
func algoName(a string) string {
	switch a {
	case "olive":
		return string(core.AlgoOLIVE)
	case "quickg":
		return string(core.AlgoQuickG)
	case "fullg":
		return string(core.AlgoFullG)
	}
	return a // serve.New rejects unknown names with a useful error
}

// workloadParams derives the MMPP parameters the simulator uses for the
// given utilization and arrival rate (see sim.Run's calibration note).
func workloadParams(util, lambda float64, slots, numApps int) workload.Params {
	wp := workload.DefaultParams().WithUtilization(util)
	wp.Slots = slots
	wp.LambdaPerNode = lambda
	wp.NumApps = numApps
	wp.DemandMean = util * 100 / lambda
	return wp
}

// buildPlan generates the request history and solves PLAN-VNE over it.
func buildPlan(g *graph.Graph, apps []*vnet.App, util float64, histSlots int, lambda float64, rng *rand.Rand) (*plan.Plan, error) {
	wp := workloadParams(util, lambda, histSlots, len(apps))
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		return nil, err
	}
	popts := plan.DefaultOptions()
	return plan.BuildFromHistory(g, apps, hist, popts, rng)
}

// runGenStream emits a canned request stream drawn from the MMPP model
// (its own rng stream, so it never replays the plan history). With drift,
// every ingress from the stream's halfway slot on is redrawn uniformly —
// the traffic shift the replanning e2e recovers from.
func runGenStream(w io.Writer, g *graph.Graph, numApps, n int, util, lambda float64, seed uint64, drift bool) error {
	// Size the trace long enough to hold n requests: λ·edgeNodes per slot
	// in expectation, padded 2×.
	perSlot := lambda * float64(len(g.EdgeNodes()))
	slots := int(2*float64(n)/perSlot) + 10
	wp := workloadParams(util, lambda, slots, numApps)
	tr, err := workload.GenerateMMPP(g, wp, rand.New(rand.NewPCG(seed, 0xd5ea)))
	if err != nil {
		return err
	}
	if len(tr.Requests) < n {
		return fmt.Errorf("generated only %d requests, want %d (raise -lambda?)", len(tr.Requests), n)
	}
	if drift {
		tr = workload.ShuffleIngressFrom(tr, g, tr.Requests[n/2].Arrive,
			rand.New(rand.NewPCG(seed, 0xd21f)))
	}
	reqs := make([]serve.StreamRequest, n)
	for i, r := range tr.Requests[:n] {
		reqs[i] = serve.StreamRequest{
			App: r.App, Ingress: int(r.Ingress), Demand: r.Demand,
			Duration: r.Duration, Arrive: r.Arrive,
		}
	}
	return serve.SaveStream(w, reqs)
}

// runReplay posts a stream file and prints the canonical decision lines.
func runReplay(baseURL, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	reqs, err := serve.LoadStream(f)
	f.Close()
	if err != nil {
		return err
	}
	return serve.Replay(nil, baseURL, reqs, os.Stdout)
}
