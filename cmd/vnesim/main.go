// Command vnesim regenerates the paper's experiments and runs arbitrary
// user-defined scenarios. Each experiment prints the rows/series the
// corresponding figure or table reports. Experiment cells (rep × topology
// × utilization × trace) fan out across a parallel runner; with -out each
// completed cell is persisted so an interrupted sweep resumes (-resume)
// instead of recomputing.
//
// Usage:
//
//	vnesim -list
//	vnesim -exp fig6+7 -topo iris -scale smoke
//	vnesim -exp all -scale smoke -workers 8
//	vnesim -exp fig16a -scale paper -out results/ -resume -progress
//	vnesim -scenario myspec.json -scale smoke -out results/ -progress
//
// Every figure and table of the paper is a declarative spec in the
// scenario registry (internal/scenario). -exp NAME looks NAME up there
// (-list prints the names; all runs every one, in name order) and
// -scenario runs a spec loaded from JSON; both render through
// sim.RunScenario. A registered spec whose report titles name {topo}
// runs once per topology: all four, or the one -topo names. See
// examples/customscenario for a sweep no paper figure expresses.
// Scales: smoke (minutes) and paper (Table III: 30 reps × 6000 slots —
// hours sequentially; the runner divides that by the worker count).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/olive-vne/olive/internal/runner"
	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/sim"
	"github.com/olive-vne/olive/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vnesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vnesim", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, or a registered scenario name (see -list)")
	golden := fs.String("golden", "", "write the golden-fingerprint suite (one file per config) into this directory and exit")
	list := fs.Bool("list", false, "list the registered scenarios with their descriptions and exit")
	scenarioFile := fs.String("scenario", "", "run a user-defined scenario spec loaded from this JSON file")
	topoFlag := fs.String("topo", "", "topology for the experiments reported per topology (iris, cittastudi, 5gen, 100n150e); empty = all four")
	scaleFlag := fs.String("scale", "smoke", "experiment scale: smoke or paper")
	reps := fs.Int("reps", 0, "override repetition count")
	seed := fs.Uint64("seed", 0, "override base seed")
	utils := fs.String("utils", "", "override utilization sweep, e.g. 0.6,1.0,1.4")
	workers := fs.Int("workers", 0, "parallel workers for experiment cells (0 = GOMAXPROCS)")
	out := fs.String("out", "", "artifact directory: persist each completed cell as versioned JSON")
	resume := fs.Bool("resume", false, "with -out: load cached cell artifacts instead of recomputing them")
	progress := fs.Bool("progress", false, "report per-cell progress and ETA on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range scenario.Names() {
			fmt.Fprintf(stdout, "%-8s %s\n", name, scenario.Describe(name))
		}
		return nil
	}
	if *resume && *out == "" {
		return errors.New("-resume requires -out")
	}
	specs, err := loadSpecs(*scenarioFile, *exp)
	if err != nil {
		return err
	}
	topos := topo.All()
	if *topoFlag != "" {
		var tn topo.Name
		if err := tn.UnmarshalText([]byte(*topoFlag)); err != nil {
			return err
		}
		topos = []topo.Name{tn}
	}

	// Profiling hooks: hot-path work (the online embedding loop, the
	// substrate-state layer) is measurable on real experiment sweeps, not
	// only under `go test -bench`. The heap-profile defer is registered
	// first so that (defers being LIFO) the CPU profile stops before the
	// forced GC and heap serialization run — they must not pollute it.
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush recent frees so the heap profile is settled
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vnesim: -memprofile:", err)
			}
			f.Close()
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// After the profiling hooks: the golden suite's hot path is exactly
	// what -cpuprofile/-memprofile exist to inspect.
	if *golden != "" {
		return runGolden(*golden)
	}

	var scale sim.Scale
	switch *scaleFlag {
	case "smoke":
		scale = sim.SmokeScale()
	case "paper":
		scale = sim.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (valid: smoke, paper)", *scaleFlag)
	}
	if *reps > 0 {
		scale.Reps = *reps
	}
	if *seed > 0 {
		scale.Seed = *seed
	}
	if *utils != "" {
		scale.Utils = nil
		for _, tok := range strings.Split(*utils, ",") {
			u, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err == nil && (!(u > 0) || math.IsInf(u, 1)) {
				err = errors.New("utilization must be positive and finite")
			}
			if err != nil {
				return fmt.Errorf("bad -utils entry %q (want comma-separated utilizations, e.g. 0.6,1.0,1.4): %w", tok, err)
			}
			scale.Utils = append(scale.Utils, u)
		}
	}

	// Parallel runner: Ctrl-C cancels the sweep (in-flight cells finish
	// and persist; with -out, rerunning with -resume picks up where the
	// sweep stopped). Release the handler on the first interrupt so a
	// second Ctrl-C terminates immediately instead of being swallowed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	scale.Runner.Context = ctx
	scale.Runner.Workers = *workers
	if *out != "" {
		store, err := runner.OpenStore(*out)
		if err != nil {
			return err
		}
		scale.Runner.Store = store
		scale.Runner.Resume = *resume
	}
	if *progress {
		scale.Runner.Reporter = runner.NewTextReporter(os.Stderr)
	}

	// Registered and user-defined scenarios alike run through the same
	// scale and runner machinery: -workers, -out, -resume and -progress
	// all apply.
	for _, sp := range specs {
		runs := []*scenario.Spec{sp}
		if *scenarioFile == "" {
			runs = topologyRuns(sp, topos)
		}
		for _, r := range runs {
			tbls, err := sim.RunScenario(r, scale)
			if err != nil {
				return err
			}
			for _, t := range tbls {
				t.Fprint(stdout)
			}
		}
	}
	return nil
}

// loadSpecs resolves what to run: the spec in file when one is named,
// else the registered scenario exp, or every registered one for "all".
func loadSpecs(file, exp string) ([]*scenario.Spec, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sp, err := scenario.Load(f)
		if err != nil {
			return nil, err
		}
		return []*scenario.Spec{sp}, nil
	}
	names := []string{exp}
	if exp == "all" {
		names = scenario.Names()
	}
	specs := make([]*scenario.Spec, len(names))
	for i, name := range names {
		sp, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", exp, strings.Join(scenario.Names(), ", "))
		}
		specs[i] = sp
	}
	return specs, nil
}

// perTopology reports whether a registered spec runs once per topology:
// its report titles name the topology through the {topo} placeholder.
func perTopology(sp *scenario.Spec) bool {
	for _, r := range sp.Reports {
		if strings.Contains(r.Title, "{topo}") {
			return true
		}
	}
	return false
}

// topologyRuns returns the runs vnesim makes of a registered spec: one
// per topology in topos, each with that topology as the first key of its
// base patch, when the spec runs per topology, else the spec itself.
// Registered bases are compact JSON objects without a topology key.
func topologyRuns(sp *scenario.Spec, topos []topo.Name) []*scenario.Spec {
	if !perTopology(sp) {
		return []*scenario.Spec{sp}
	}
	rest := "}"
	if len(sp.Base) > len("{}") {
		rest = "," + string(sp.Base[1:])
	}
	runs := make([]*scenario.Spec, len(topos))
	for i, tn := range topos {
		c := sp.Clone()
		c.Base = scenario.Patch(fmt.Sprintf(`{"topology":%q%s`, tn, rest))
		runs[i] = c
	}
	return runs
}

// runGolden regenerates the golden-fingerprint determinism suite: one
// canonical fingerprint file per GoldenConfig. CI diffs the output
// against testdata/golden/; regenerate with
//
//	go run ./cmd/vnesim -golden testdata/golden
func runGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, gc := range sim.GoldenConfigs() {
		fmt.Fprintf(os.Stderr, "golden: %s...\n", gc.Name)
		fp, err := sim.Fingerprint(gc.Config)
		if err != nil {
			return fmt.Errorf("golden %s: %w", gc.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, gc.Name+".fp"), []byte(fp), 0o644); err != nil {
			return err
		}
	}
	return nil
}
