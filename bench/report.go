package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// printTable writes one run's metrics for a reader: every metric by name
// with its unit, and for the raw samples their count, median and
// quartiles.
func printTable(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s  seed=%d  seconds=%d  trace=%d  attempted=%d  failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Report.Attempted, rec.Report.Failed)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, rec.Report.Metrics[d.name].Value, d.unit)
	}
	for _, name := range sortedKeys(rec.Raw) {
		vals := rec.Raw[name]
		if name == "op_ns" {
			fmt.Fprintf(tw, "  raw %s\tn=%.0f\tp50 %.0f  p90 %.0f  p99 %.0f  p99.9 %.0f  p99.99 %.0f; highest with 10 samples beyond: p%g\n",
				name, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], 100*pickTail(int(vals[0]), tailLadder))
			continue
		}
		q1, q3 := quartiles(vals)
		fmt.Fprintf(tw, "  raw %s\tn=%d\tmedian %.6g  q1 %.6g  q3 %.6g\n", name, len(vals), median(vals), q1, q3)
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads a -out file and groups the untraced runs' values by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Report.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict applies one metric's bound to two sets of runs. The spread is
// the distance between A's own quartiles as a share of A's median; a
// spread wider than the bound cannot resolve a change of the bound's
// size, so such a pair is unresolved whatever the medians say.
func verdict(a, b []float64, better string, bound float64) (string, float64, float64) {
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	spread := (q3 - q1) / math.Abs(medA)
	worse := (medB - medA) / math.Abs(medA)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spread > bound:
		return "unresolved", spread, worse
	case worse > bound:
		return "worse", spread, worse
	}
	return "within bound", spread, worse
}

// runCompare prints one row per (end-to-end metric, workload): A/A
// between two sets of runs of one commit, before/after between two
// commits.
func runCompare(w io.Writer, benchJSON, fileA, fileB string) error {
	bf, err := readBenchmarkFile(benchJSON)
	if err != nil {
		return err
	}
	a, err := readRecords(fileA)
	if err != nil {
		return err
	}
	b, err := readRecords(fileB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn A/B\tmedian A\tmedian B\tworse by\tspread A\tbound\tverdict")
	bad := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t\t\t\t\t%.3g\tmissing\n", wl.Name, m.Name, m.Unit, len(va), len(vb), m.Bound)
				bad++
				continue
			}
			v, spread, worse := verdict(va, vb, m.Better, m.Bound)
			if v != "within bound" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.3g\t%s\n",
				wl.Name, m.Name, m.Unit, len(va), len(vb), median(va), median(vb), 100*worse, 100*spread, m.Bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d of %d pairs outside their bound, unresolved or missing\n", bad, len(bf.Workloads)*len(bf.EndToEnd))
	return nil
}
