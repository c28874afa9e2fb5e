// Package runner is the parallel experiment-runner of the reproduction: a
// worker-pool scheduler that fans independent jobs (simulation sweep
// cells) out across GOMAXPROCS goroutines while keeping every observable
// result deterministic. Three disciplines make parallelism safe here:
//
//   - Identity is positional, never temporal: a job's Key encodes
//     everything its computation depends on (the cell's seed included),
//     so any worker count, any interleaving and any resume produce
//     identical numbers.
//   - Aggregation is canonical: All returns outcomes in job order, not
//     arrival order, so downstream summaries are byte-identical to a
//     sequential loop.
//   - Completion is durable: with a Store attached, each finished cell is
//     persisted as versioned JSON (see Store), so a cancelled
//     or crashed sweep resumes from its artifacts instead of recomputing.
//
// Panics inside a job are recovered and reported as that job's error; one
// job's failure cancels the remaining undispatched jobs (fail-fast) but
// never tears down the process.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one independent unit of work. Key is the job's stable identity:
// it names the cached artifact and must uniquely encode everything the
// computation depends on. Label, when set, is the short human-readable
// name used in progress lines and errors (Key can be a long canonical
// encoding).
type Job[T any] struct {
	Key   string
	Label string
	Run   func(ctx context.Context) (T, error)
}

// label returns the job's display name.
func (j Job[T]) label() string {
	if j.Label != "" {
		return j.Label
	}
	return j.Key
}

// Outcome is the result of one job, reported in job order.
type Outcome[T any] struct {
	Key   string
	Value T
	// Err is the job's failure, if any (a recovered panic included).
	Err error
	// Cached is true when Value was loaded from the store.
	Cached bool
	// Elapsed is the job's execution time (zero for cache hits).
	Elapsed time.Duration
}

// Options configures a fan-out.
type Options struct {
	// Workers bounds the parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Store, when non-nil, receives every completed job's value as a
	// versioned JSON artifact keyed by Job.Key.
	Store *Store
	// Resume additionally reads the store: jobs whose artifact already
	// exists are satisfied from cache instead of running.
	Resume bool
	// Reporter, when non-nil, observes progress.
	Reporter Reporter
}

// All executes the jobs on a bounded worker pool and returns their
// outcomes indexed like jobs — canonical order, independent of which
// worker finished first. The error is the first job failure or the
// context's error; in both cases the returned slice still carries every
// outcome that completed (and, with a Store, those cells are already
// persisted, so the sweep is resumable).
func All[T any](ctx context.Context, jobs []Job[T], opts Options) ([]Outcome[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	out := make([]Outcome[T], len(jobs))
	var pending []int
	for i, j := range jobs {
		out[i].Key = j.Key
		if opts.Store != nil && opts.Resume {
			var v T
			hit, err := opts.Store.Get(j.Key, &v)
			if err != nil {
				return out, err
			}
			if hit {
				out[i].Value = v
				out[i].Cached = true
				continue
			}
		}
		pending = append(pending, i)
	}

	started := time.Now() //olive:wallclock progress/ETA reporting only, never in artifacts
	if opts.Reporter != nil {
		opts.Reporter.Start(len(jobs), len(jobs)-len(pending))
		defer func() { opts.Reporter.Finish(time.Since(started)) }() //olive:wallclock progress/ETA reporting only
	}
	if len(pending) == 0 {
		return out, ctx.Err()
	}

	// Fail-fast: the first job error cancels the jobs not yet started.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errMu    sync.Mutex
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	feed := make(chan int)
	go func() {
		defer close(feed)
		for _, idx := range pending {
			select {
			case feed <- idx:
			case <-cctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range feed {
				if cctx.Err() != nil {
					return
				}
				o := &out[idx]
				t0 := time.Now() //olive:wallclock per-cell Elapsed is diagnostic; goldens exclude runtime columns
				o.Value, o.Err = protect(cctx, jobs[idx])
				o.Elapsed = time.Since(t0) //olive:wallclock diagnostic timing

				if o.Err == nil && opts.Store != nil {
					o.Err = opts.Store.Put(o.Key, o.Value)
				}
				if opts.Reporter != nil {
					opts.Reporter.Done(jobs[idx].label(), o.Elapsed, o.Err)
				}
				if o.Err != nil {
					fail(fmt.Errorf("runner: job %q: %w", jobs[idx].label(), o.Err))
					return
				}
			}
		}()
	}
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return out, firstErr
	}
	return out, ctx.Err()
}

// protect runs one job with panic isolation: a panicking cell becomes
// that cell's error (with its stack) instead of killing the sweep.
func protect[T any](ctx context.Context, j Job[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return j.Run(ctx)
}
