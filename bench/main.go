// Command bench is the repository's benchmark: four workloads that rest
// on different layers of the stack, end-to-end metrics measured with
// tracing off, and a traced run that adds per-layer metrics from spans,
// counters, isolated probes and a CPU profile. bench/README.md has the
// tables and the reasons; BENCHMARK.json at the repository root names the
// command, the workloads and the metrics.
//
//	bash bench/run.sh -workload all -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload all -seed 1 -trace 1   # per-layer metrics
//	bash bench/run.sh -compare A.jsonl B.jsonl         # apply the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// Conditions every run is measured under. BENCHMARK.json's schema has no
// room for them, so they are pinned here, and GOMAXPROCS per workload in
// metrics.go.
const (
	pinnedGOGC     = 100
	defaultSeconds = 20
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out appends per run: the report plus what is needed to
// read it later — the workload, the conditions and the raw samples.
type record struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      int                  `json:"trace"`
	Report     report               `json:"report"`
	Raw        map[string][]float64 `json:"raw"`
	Conditions map[string]string    `json:"conditions"`
}

type config struct {
	seed    uint64
	seconds int
	trace   bool
	sc      scale
	outDir  string
	outFile string
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "seed every request's marks, the drift and the bootstrap draws derive from")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the timed region of one run")
		trace     = flag.Int("trace", 0, "1 records spans, counters, probes and a CPU profile and prints the per-layer metrics instead")
		scaleF    = flag.String("scale", "full", "full, or smoke for tiny inputs (tests)")
		outDir    = flag.String("outdir", "bench/out", "directory for span files, CPU profiles and the request stream of traced runs")
		outFile   = flag.String("out", "", "append one JSON record per run to this file (input to -compare)")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments, using the bounds in -benchmark-json")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "the benchmark description -compare takes bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		if err := runCompare(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, outFile: *outFile}
	switch *scaleF {
	case "full":
	case "smoke":
		cfg.sc = scaleSmoke
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleF))
	}
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	ran := false
	for _, w := range workloads {
		if *workload != "all" && *workload != w.name {
			continue
		}
		ran = true
		rec, err := runWorkload(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printTable(os.Stderr, rec)
		if err := reportPins(os.Stderr, rec, cfg.sc); err != nil {
			fatal(err)
		}
		if cfg.outFile != "" {
			if err := appendRecord(cfg.outFile, rec); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.Report)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ran {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// pinConditions fixes what the numbers depend on besides the code. A host
// with fewer CPUs than the pin still runs (every run must report), but
// its timings are not comparable and the record says so.
func pinConditions(procs int) {
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(pinnedGOGC)
	if n := runtime.NumCPU(); n < procs {
		fmt.Fprintf(os.Stderr, "bench: warning: %d CPU(s), fewer than the pinned GOMAXPROCS=%d; timings are not comparable with a %d-CPU host\n", n, procs, procs)
	}
}

func conditions(procs int) map[string]string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(procs),
		"gogc":       fmt.Sprint(pinnedGOGC),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timeSetups runs setup at least three times, and up to 101 times while
// that stays within a second, so that setup_s is a median and not one
// draw: single set-ups of a few milliseconds differ by a factor of two
// with what the allocator and the collector happen to be doing.
func timeSetups(b bench, seed uint64) ([]float64, error) {
	var secs []float64
	var total time.Duration
	for len(secs) < 3 || (len(secs) < 101 && total < time.Second) {
		// Collect the previous round's inputs first, or how much garbage
		// happens to be alive decides peak_rss_mb.
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

func runWorkload(w workloadDef, cfg config) (*record, error) {
	pinConditions(w.procs)
	b := w.new(cfg.sc)
	defer b.close()
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Raw: map[string][]float64{},
		Report:     report{Metrics: map[string]metricValue{}},
		Conditions: conditions(w.procs),
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		rec.Trace = 1
		return rec, runTraced(w, b, cfg, budget, rec)
	}
	setups, err := timeSetups(b, cfg.seed)
	if err != nil {
		return nil, err
	}
	res, err := b.run(budget, nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	lat, p50, tail := passPercentiles(res.passNS, res.tail)
	values := map[string]float64{
		"ops_per_s":    median(res.passOps),
		"op_p50_us":    p50 / 1e3,
		"op_tail_us":   tail / 1e3,
		"reject_ratio": res.rejectRatio,
		"peak_rss_mb":  rss,
		"setup_s":      median(setups),
	}
	for _, d := range endToEnd {
		rec.Report.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	rec.Raw["setup_s"], rec.Raw["ops_per_s"], rec.Raw["op_ns"] = setups, res.passOps, summarize(lat)
	rec.Report.Correct, rec.Report.Attempted, rec.Report.Failed = true, res.attempted, res.failed
	return rec, nil
}

// summarize keeps a latency sample readable in a record: count, then the
// ladder's percentiles.
func summarize(sorted []float64) []float64 {
	out := []float64{float64(len(sorted))}
	for _, p := range tailLadder {
		out = append(out, percentile(sorted, p))
	}
	return out
}

// runTraced is the second altitude: a short untraced region for the
// overhead baseline, a traced region under a CPU profile, then the
// isolated probes.
func runTraced(w workloadDef, b bench, cfg config, budget time.Duration, rec *record) error {
	if err := b.setup(cfg.seed); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	base, err := b.run(budget/4, nil)
	if err != nil {
		return fmt.Errorf("untraced region: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr := newTracer(time.Now(), 0)
	res, err := b.run(budget/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return fmt.Errorf("traced region: %w", err)
	}
	if err := checkf(base.digest == res.digest, "outputs differ between the untraced and the traced region (digest %#x, then %#x)", base.digest, res.digest); err != nil {
		return err
	}
	m := res.layer
	m["trace.overhead_ratio"] = median(base.passOps) / median(res.passOps)
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for layer, share := range cpuShares(samples) {
		m[layer+".cpu_share"] = share
	}
	// About eight probes share an eighth of the budget.
	b.probe(m, budget/64)
	if err := probeLPFixture(m, budget/64); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "cpu-"+w.name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	if sb, ok := b.(*serveBench); ok {
		if err := sb.writeStream(filepath.Join(cfg.outDir, "stream.json")); err != nil {
			return err
		}
	}
	for _, d := range perLayer {
		rec.Report.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	for name := range m {
		if _, ok := rec.Report.Metrics[name]; !ok {
			return fmt.Errorf("metric %q is measured but not listed in perLayer", name)
		}
	}
	rec.Raw["ops_per_s_untraced"], rec.Raw["ops_per_s_traced"] = base.passOps, res.passOps
	rec.Report.Correct, rec.Report.Attempted, rec.Report.Failed = true, res.attempted, res.failed
	return nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
