package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at smoke scale, untraced and
// traced, with every output check on: plans feasible, decisions equal
// across passes and between the two regions, nothing leaked, the server's
// books equal to the caller's, every shard on the published generation.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 1, sc: scaleSmoke, outDir: t.TempDir()}
			rec, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Report.Correct || rec.Report.Attempted < 1 || rec.Report.Failed != 0 {
				t.Fatalf("report %+v", rec.Report)
			}
			for _, d := range endToEnd {
				if v, ok := rec.Report.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
					t.Errorf("end-to-end metric %s = %+v (present %v); it must be positive on every workload", d.name, v, ok)
				}
			}
			if len(rec.Report.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(rec.Report.Metrics), len(endToEnd))
			}

			cfg.trace = true
			rec, err = runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Report.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(rec.Report.Metrics), len(perLayer))
			}
			m := rec.Report.Metrics
			var shares float64
			for _, l := range shareLayers {
				shares += m[l+".cpu_share"].Value
			}
			if shares != 0 && (shares < 0.98 || shares > 1.02) { // 0: no profiling timer here
				t.Errorf("cpu shares sum to %g", shares)
			}
			if w.name == "online-olive-r100" || w.name == "online-fullg-iris" {
				if m["lp.solves"].Value != 0 {
					t.Errorf("%g LP solves in the online loop", m["lp.solves"].Value)
				}
				if m["core.process_p50_ns"].Value <= 0 {
					t.Error("no Process spans")
				}
			}
			if w.name == "serve-drift-iris" {
				for _, name := range []string{"serve.handler_p50_us", "serve.transport_p50_us", "serve.replan_ms", "serve.solve_us", "obs.scrape_ms", "lp.solves"} {
					if m[name].Value <= 0 {
						t.Errorf("%s = %g", name, m[name].Value)
					}
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "stream.json")); err != nil {
					t.Error(err)
				}
			}
			if m["trace.overhead_ratio"].Value <= 0 || m["lp.solve_fixture_ms"].Value <= 0 {
				t.Errorf("overhead ratio %g, fixture solve %g ms", m["trace.overhead_ratio"].Value, m["lp.solve_fixture_ms"].Value)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSONNamesWhatTheProgramReports keeps BENCHMARK.json and
// the tables in metrics.go one list.
func TestBenchmarkJSONNamesWhatTheProgramReports(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the program says %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []benchmarkMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: %+v, the program says %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if last := bf.EndToEnd[len(bf.EndToEnd)-1]; last.Name != "setup_s" || last.Unit != "s" || last.Better != "lower" {
		t.Errorf("setup_s entry: %+v", last)
	}
}

// TestPinsNameReportedMetrics keeps expected.json readable by reportPins.
func TestPinsNameReportedMetrics(t *testing.T) {
	pins, err := readPins()
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.name] = true
	}
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
	}
	if len(pins.Workloads) == 0 {
		t.Error("nothing pinned")
	}
	for w, ms := range pins.Workloads {
		if !names[w] {
			t.Errorf("pins for unknown workload %q", w)
		}
		for m := range ms {
			if !known[m] {
				t.Errorf("%s: pin for unknown metric %q", w, m)
			}
		}
	}
}
