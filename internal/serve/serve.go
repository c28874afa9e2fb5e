// Package serve is the online request-serving layer of the reproduction:
// a long-running HTTP/JSON service that accepts virtual-network embedding
// requests against live substrate state and answers with accept/reject
// decisions, embeddings, costs and latency.
//
// The concurrency model is a sharded engine pool. A core.Engine is
// single-threaded by design (it owns mutable residual state and a warm
// path cache), so instead of sharing one engine the server runs N shards,
// each owning its own substrate.State + embedder.Oracle + core.Engine and
// a mutex held whenever that engine is in use. A deterministic
// ingress→shard router (FNV-1a over the ingress node) pins every ingress
// — and therefore every plan class, which is keyed by (app, ingress) — to
// exactly one shard. A request is decided on the HTTP handler's own
// goroutine under its shard's mutex; one that finds the shard busy waits
// for the mutex. The wait is bounded: an arriving request that finds
// QueueDepth ops already waiting is answered 429 (backpressure) instead
// of growing memory.
//
// With more than one shard the substrate capacity is partitioned: each
// shard's state starts at capacity/N, so the shards' independent
// admissions cannot jointly oversubscribe a physical element. This trades
// packing quality for throughput — a request one shard rejects might have
// fit in another shard's slice — and is the documented cost of scaling;
// -shards 1 is exact. The partition is elastic: Resize grows or shrinks
// the routable shard set at runtime, re-partitioning free capacity
// through serialized harvest/deposit operations (see resize.go).
//
// Time is slotted, like the simulator. In real-time mode a per-shard
// departure timer maps wall clock to slots (Options.SlotDuration) and
// releases expired embeddings at slot boundaries. In deterministic mode
// (Options.Deterministic) there are no timers: the virtual clock advances
// only through the Arrive field of the requests themselves, so the
// accept/reject sequence for a given request stream is a pure function of
// the stream — byte-reproducible across runs, which is what CI asserts.
//
// Serving with OLIVE can additionally replan online (Options.Replan): the
// shards feed a rolling request history, a background rebuild aggregates
// it into fresh plan classes off the request path, and the new plan is
// hot-swapped generation-by-generation without dropping a request (see
// replan.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/obs"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/vnet"
)

// Limits groups the admission-control knobs: how much work the server
// queues and how much it lets in.
type Limits struct {
	// QueueDepth bounds the ops waiting for each shard (default 256): a
	// request that finds that many answers 429. An op counts as waiting
	// from its admission until it takes the shard's mutex.
	QueueDepth int
	// RateLimit configures admission token buckets in front of the shard
	// queues (see limit.go). The zero value disables limiting. The
	// limiter consults the wall clock, so enabling it in deterministic
	// mode makes admission — though never a post-admission decision —
	// timing-dependent.
	RateLimit RateLimit
}

// Observability groups the instrumentation wiring.
type Observability struct {
	// Registry receives the server's metric families (GET /metrics, always
	// served). Nil constructs a private registry, retrievable via
	// Metrics(). All instrumentation is passive — it observes decisions,
	// it never influences them — so access logging and scrapes cannot
	// change an accept/reject sequence (serve tests assert exactly that).
	Registry *obs.Registry
	// AccessLog, when set, receives one structured line per HTTP request
	// (id, method, route, status, bytes, duration, client).
	AccessLog *slog.Logger
}

// Replan configures online replanning: the rolling request history the
// shards capture, and the background rebuild + hot-swap machinery that
// turns it into fresh plan generations. Requires OLIVE (the only
// plan-guided online algorithm).
type Replan struct {
	// Enabled turns on history capture and the POST /v1/admin/replan
	// trigger. Implied by a positive Interval.
	Enabled bool
	// Interval is the automatic rebuild cadence. It needs a wall clock,
	// so it only ticks in real-time mode; in deterministic mode rebuilds
	// happen solely through the admin trigger, which is synchronous and
	// therefore ordered — and reproducible — within a replayed request
	// stream. Zero means trigger-only.
	Interval time.Duration
	// HistoryDepth bounds each shard's history ring (default 4096
	// requests). Smaller rings forget faster: the rebuilt plan tracks
	// recent traffic more aggressively.
	HistoryDepth int
	// MinHistory is the minimum total captured requests a rebuild needs;
	// triggers below it are skipped (default 64).
	MinHistory int
	// Seed derives each rebuild's aggregation-bootstrap rng stream
	// (PCG(Seed, generation)), so generation g's rebuild is a pure
	// function of the captured history.
	Seed uint64
}

// Options configures a Server.
type Options struct {
	// Shards is the number of engine shards (default 1). Each shard owns
	// an independent substrate state holding 1/Shards of every element's
	// capacity. Resizable at runtime via Server.Resize.
	Shards int
	// Algorithm selects the embedding algorithm (default OLIVE when Plan
	// is set, QUICKG otherwise). SLOTOFF is batch-only and rejected.
	Algorithm core.Algorithm
	// Plan is the PLAN-VNE plan guiding OLIVE (generation 0 when
	// replanning is on). Ignored by QUICKG/FULLG.
	Plan *plan.Plan
	// SlotDuration maps wall-clock time to slots in real-time mode
	// (default 1s). Departure timers fire on slot boundaries.
	SlotDuration time.Duration
	// Deterministic disables the wall-clock timers: slots advance only
	// via request Arrive fields, making the decision sequence a pure
	// function of the request stream.
	Deterministic bool

	// Limits groups the admission-control knobs.
	Limits Limits
	// Replan configures online replanning (disabled by default).
	Replan Replan
	// Observability groups the instrumentation wiring.
	Observability Observability

	// testHookProcess, when set, runs before each embed is decided, on
	// the handler's goroutine under the shard's mutex. Package tests use
	// it to stall a shard deterministically (backpressure, drain); nil in
	// production.
	testHookProcess func(shard int)
}

func (o *Options) normalize() error {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Limits.QueueDepth <= 0 {
		o.Limits.QueueDepth = 256
	}
	if o.SlotDuration <= 0 {
		o.SlotDuration = time.Second
	}
	if o.Algorithm == "" {
		if !o.Plan.Empty() {
			o.Algorithm = core.AlgoOLIVE
		} else {
			o.Algorithm = core.AlgoQuickG
		}
	}
	switch o.Algorithm {
	case core.AlgoOLIVE:
		if o.Plan.Empty() {
			return errors.New("serve: OLIVE needs a plan (use QUICKG for plan-less serving)")
		}
	case core.AlgoQuickG, core.AlgoFullG:
		// plan-less
	case core.AlgoSlotOff:
		return errors.New("serve: SLOTOFF is a batch baseline, not servable online")
	default:
		return fmt.Errorf("serve: unknown algorithm %q", o.Algorithm)
	}
	if o.Replan.Interval > 0 {
		o.Replan.Enabled = true
	}
	if o.Replan.Enabled {
		if o.Algorithm != core.AlgoOLIVE {
			return fmt.Errorf("serve: replanning requires OLIVE (got %s)", o.Algorithm)
		}
		if o.Replan.HistoryDepth <= 0 {
			o.Replan.HistoryDepth = 4096
		}
		if o.Replan.MinHistory <= 0 {
			o.Replan.MinHistory = 64
		}
	}
	return nil
}

// Server is the sharded online embedding service. Construct with New,
// expose via Handler, stop with Drain.
type Server struct {
	g    *graph.Graph
	apps []*vnet.App
	opts Options

	// all holds every shard ever created (append-only, copy-on-write);
	// route holds the shards new embeds hash onto. A shrink retires the
	// routing tail but keeps the shards running — they still own live
	// embeddings and serve their releases — and a later grow revives
	// retired shards (with whatever capacity drained back onto them)
	// before creating fresh ones.
	all   atomic.Pointer[[]*shard]
	route atomic.Pointer[[]*shard]

	eopts   core.Options // resolved engine options new shards are built with
	nextID  atomic.Int64
	started time.Time

	// curPlan/planGen are the latest published plan and its generation
	// (0 = the construction plan). Shards adopt asynchronously; their
	// individually adopted generation is in shard.gen.
	curPlan atomic.Pointer[plan.Plan]
	planGen atomic.Int64
	replan  *replanner // nil unless Options.Replan.Enabled

	draining  atomic.Bool
	drainOnce sync.Once
	drainDone chan struct{}
	inflight  sync.WaitGroup // HTTP requests between admission and reply
	timerStop context.CancelFunc
	timerWG   sync.WaitGroup
	resizeMu  sync.Mutex // serializes Resize; TryLock answers 409

	met     *serverMetrics
	limiter *rateLimiter // nil unless Options.Limits.RateLimit is enabled
	log     *slog.Logger // nil unless Options.Observability.AccessLog is set

	// Shed counters for requests refused before reaching a shard
	// (queue-full sheds are per-shard, on the shard struct).
	shedGlobal   atomic.Int64
	shedClient   atomic.Int64
	shedDraining atomic.Int64
}

// allShards returns every shard ever created, retired ones included.
func (s *Server) allShards() []*shard { return *s.all.Load() }

// routeShards returns the shards new embeds are routed to.
func (s *Server) routeShards() []*shard { return *s.route.Load() }

// New builds a server over substrate g and application set apps. The
// shards' engines are constructed eagerly so misconfiguration (e.g. OLIVE
// without a plan) fails here, not on the first request.
func New(g *graph.Graph, apps []*vnet.App, opts Options) (*Server, error) {
	if g == nil || len(apps) == 0 {
		return nil, errors.New("serve: server needs a substrate and applications")
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	eopts := core.Options{Exact: opts.Algorithm == core.AlgoFullG}
	if opts.Algorithm == core.AlgoOLIVE {
		eopts.Plan = opts.Plan
	}

	s := &Server{
		g:         g,
		apps:      apps,
		opts:      opts,
		eopts:     eopts,
		started:   time.Now(),
		drainDone: make(chan struct{}),
	}
	s.curPlan.Store(opts.Plan)
	// Construct every shard before spawning any goroutine, so a failed
	// construction leaks nothing.
	var shards []*shard
	for i := 0; i < opts.Shards; i++ {
		sh, err := s.buildShard(i, 1/float64(opts.Shards))
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
	}
	s.all.Store(&shards)
	s.route.Store(&shards)
	if opts.Limits.RateLimit.enabled() {
		s.limiter = newRateLimiter(opts.Limits.RateLimit)
	}
	s.log = opts.Observability.AccessLog
	if opts.Replan.Enabled {
		s.replan = newReplanner(s)
	}
	reg := opts.Observability.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newServerMetrics(s, reg)
	if !opts.Deterministic {
		ctx, cancel := context.WithCancel(context.Background())
		s.timerStop = cancel
		s.timerWG.Add(1)
		go s.departureTimer(ctx)
		if s.replan != nil && opts.Replan.Interval > 0 {
			s.replan.startTicker(opts.Replan.Interval)
		}
	}
	return s, nil
}

// buildShard constructs (but does not start) one shard holding the given
// fraction of the substrate capacity, running the currently published
// plan generation.
func (s *Server) buildShard(idx int, capFraction float64) (*shard, error) {
	st := substrate.New(s.g)
	eopts := s.eopts
	if s.opts.Algorithm == core.AlgoOLIVE {
		eopts.Plan = s.curPlan.Load()
	}
	eng, err := core.NewEngineOn(embedder.ForState(st), s.apps, eopts)
	if err != nil {
		return nil, err
	}
	if capFraction != 1 {
		st.ScaleResidual(capFraction)
	}
	sh := newShard(idx, eng, st, s.opts.Limits.QueueDepth)
	sh.hook = s.opts.testHookProcess
	sh.gen.Store(s.planGen.Load())
	if s.opts.Replan.Enabled {
		sh.hist = newHistoryRing(s.opts.Replan.HistoryDepth)
	}
	return sh, nil
}

// shardOf routes an ingress node to its shard: FNV-1a over the node ID,
// modulo the current routing table. The mapping is stable for a fixed
// shard count, so plan classes (keyed by app × ingress) always land on
// the same shard between resizes.
func (s *Server) shardOf(ingress graph.NodeID) *shard {
	route := s.routeShards()
	if len(route) == 1 {
		return route[0]
	}
	h := fnv.New32a()
	var b [4]byte
	b[0] = byte(ingress)
	b[1] = byte(ingress >> 8)
	b[2] = byte(ingress >> 16)
	b[3] = byte(ingress >> 24)
	h.Write(b[:])
	return route[h.Sum32()%uint32(len(route))]
}

// departureTimer advances every shard's clock once per slot so expired
// embeddings are released even when no requests arrive. A tick waits for
// the shard's mutex behind the op being decided.
func (s *Server) departureTimer(ctx context.Context) {
	defer s.timerWG.Done()
	tick := time.NewTicker(s.opts.SlotDuration)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			slot := int(now.Sub(s.started) / s.opts.SlotDuration)
			for _, sh := range s.allShards() {
				sh.tick(slot)
			}
		}
	}
}

// uptime is the time since construction.
func (s *Server) uptime() time.Duration { return time.Since(s.started) }

// queueShed sums the per-shard queue-full shed counters.
func (s *Server) queueShed() int64 {
	var t int64
	for _, sh := range s.allShards() {
		t += sh.shed.Load()
	}
	return t
}

// Metrics returns the server's metric registry (the one behind GET
// /metrics).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// clockSlot returns the current real-time slot (0 in deterministic mode;
// the virtual clock lives in the shards).
func (s *Server) clockSlot() int {
	if s.opts.Deterministic {
		return 0
	}
	return int(time.Since(s.started) / s.opts.SlotDuration)
}

// Drain gracefully stops the server: new requests are refused with 503,
// every admitted request still receives its decision, and departure
// timers and the replan ticker stop. The context bounds the wait. Drain is idempotent and safe
// to call concurrently: every caller — first or not — blocks until the
// drain completes (or its own context expires).
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		go func() {
			s.inflight.Wait()
			if s.timerStop != nil {
				s.timerStop()
			}
			s.timerWG.Wait()
			if s.replan != nil {
				s.replan.stopTicker()
			}
			close(s.drainDone)
		}()
	})
	select {
	case <-s.drainDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}
