package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// This file binds the declarative scenario layer (internal/scenario) to
// the simulation engine: it turns a Spec's expanded grid into sweep cells,
// fans them out through the parallel runner, and renders the Spec's
// reports — or its single-run detail view, or a static table. Every
// artifact a scenario persists is keyed by the scenario's name and spec
// hash (scenario.Spec.Tag), so editing a spec invalidates its cached
// cells instead of resuming with stale results.

// RunScenario executes one scenario at the given scale and returns its
// tables, one per report (detail and static scenarios yield one table).
// The scale supplies everything the spec leaves open: trace lengths,
// repetition count, the utilization sweep of scaleUtils axes, the base
// seed, and the runner options (workers, artifact store, resume,
// progress).
func RunScenario(sp *scenario.Spec, s Scale) ([]*Table, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch {
	case sp.Static != "":
		return runStaticScenario(sp)
	case sp.Detail != nil:
		return runDetailScenario(sp, s)
	default:
		return runGridScenario(sp, s)
	}
}

// patchFields is the one list of the keys a patch may set, each
// pointing at the Config field it sets.
type patchFields struct {
	Topology           *topo.Name        `json:"topology"`
	Utilization        *float64          `json:"utilization"`
	PlanUtilization    *float64          `json:"planUtilization"`
	ShufflePlanIngress *bool             `json:"shufflePlanIngress"`
	LambdaPerNode      *float64          `json:"lambdaPerNode"`
	DemandMeanOverride *float64          `json:"demandMeanOverride"`
	Trace              *TraceKind        `json:"trace"`
	DiurnalPeriod      *int              `json:"diurnalPeriod"`
	AppKind            *vnet.Kind        `json:"appKind"`
	GPU                *bool             `json:"gpu"`
	Algorithms         *[]core.Algorithm `json:"algorithms"`
	Quantiles          *int              `json:"quantiles"`
	PlanWindows        *int              `json:"planWindows"`
	HistSlots          *int              `json:"histSlots"`
	OnlineSlots        *int              `json:"onlineSlots"`
	MeasureFrom        *int              `json:"measureFrom"`
	MeasureTo          *int              `json:"measureTo"`
}

// patchKeys is the set of patchFields' JSON keys.
var patchKeys = func() map[string]bool {
	t := reflect.TypeFor[patchFields]()
	keys := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		keys[t.Field(i).Tag.Get("json")] = true
	}
	return keys
}()

// scenarioConfig binds configuration patches to a concrete Config: the
// scale's defaults (Iris at 100% utilization), then each patch in order,
// so a later patch's keys win. A key must match one of patchFields' keys
// exactly and appear once, since the patch's hash sees its bytes as
// written (encoding/json alone would bind "UTILIZATION" and keep the
// last of two "utilization"s); a value its field's type refuses fails
// too (the enumerations' UnmarshalText names the valid options).
func (s Scale) scenarioConfig(patches ...scenario.Patch) (Config, error) {
	c := s.config(topo.Iris, 1.0)
	for _, p := range patches {
		if len(p) == 0 {
			continue
		}
		if err := checkPatchKeys(p); err != nil {
			return Config{}, fmt.Errorf("sim: patch %s: %w", p, err)
		}
		// Built afresh for each patch: a null value nils its pointer.
		fields := patchFields{
			&c.Topology, &c.Utilization, &c.PlanUtilization, &c.ShufflePlanIngress,
			&c.LambdaPerNode, &c.DemandMeanOverride, &c.Trace, &c.DiurnalPeriod,
			&c.AppKind, &c.GPU, &c.Algorithms, &c.PlanOptions.Quantiles,
			&c.PlanWindows, &c.HistSlots, &c.OnlineSlots, &c.MeasureFrom, &c.MeasureTo,
		}
		dec := json.NewDecoder(bytes.NewReader(p))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fields); err != nil {
			return Config{}, fmt.Errorf("sim: patch %s: %w", p, err)
		}
	}
	return c, nil
}

// checkPatchKeys refuses a patch key that is not exactly one of
// patchKeys, and a key that appears twice. Malformed JSON passes: the
// decode that follows reports it.
func checkPatchKeys(p scenario.Patch) error {
	dec := json.NewDecoder(bytes.NewReader(p))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil
	}
	seen := make(map[string]bool, len(patchKeys))
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil
		}
		k, _ := t.(string)
		switch {
		case !patchKeys[k]:
			return fmt.Errorf("unknown field %q", k)
		case seen[k]:
			return fmt.Errorf("repeated field %q", k)
		}
		seen[k] = true
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil
		}
	}
	return nil
}

// ---- Grid scenarios (aggregate reports over a sweep) ----

// runGridScenario expands the spec's axes, fans the cells out through the
// runner, and renders one table per report.
func runGridScenario(sp *scenario.Spec, s Scale) ([]*Table, error) {
	points, err := sp.Expand(s.Utils)
	if err != nil {
		return nil, err
	}
	reps := s.Reps
	if sp.Reps > 0 {
		reps = sp.Reps
	}
	if sp.MaxReps > 0 {
		reps = min(reps, sp.MaxReps)
	}
	tag := sp.Tag()
	cells := make([]SweepCell, len(points))
	for i, pt := range points {
		cfg, err := s.scenarioConfig(pt.Patches...)
		if err != nil {
			return nil, fmt.Errorf("%s: cell %d (%s): %w", sp.Name, i, pt.RowLabel(), err)
		}
		cells[i] = SweepCell{Config: cfg, Reps: reps, Tag: tag}
	}
	results, err := s.sweep(cells)
	if err != nil {
		return nil, err
	}

	baseCfg, err := s.scenarioConfig(sp.Base)
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, len(sp.Reports))
	for ri, rep := range sp.Reports {
		tables[ri] = renderReport(rep, baseCfg, points, cells, results)
	}
	return tables, nil
}

// renderReport formats one report over the expanded grid. In fixed-
// algorithm mode every grid point is one row; in per-algorithm mode each
// point emits one row per configured algorithm (a point with an empty
// axis label is labeled by the algorithm name alone — the reference rows
// of Figs. 10 and 13).
func renderReport(r scenario.Report, baseCfg Config, points []scenario.GridPoint, cells []SweepCell, results []*RepeatedResult) *Table {
	tbl := &Table{
		Title:  strings.ReplaceAll(r.Title, "{topo}", string(baseCfg.Topology)),
		Header: make([]string, 0, len(r.Columns)+1),
	}
	tbl.Header = append(tbl.Header, r.RowHeader)
	for _, c := range r.Columns {
		tbl.Header = append(tbl.Header, c.Header)
	}
	for i := range points {
		label := points[i].RowLabel()
		cfg := cells[i].Config
		rr := results[i]
		if r.PerAlgoRows() {
			for _, algo := range cfg.Algorithms {
				rowLabel := label
				switch {
				case rowLabel == "":
					rowLabel = string(algo)
				case len(cfg.Algorithms) > 1:
					rowLabel = label + " " + string(algo)
				}
				tbl.AddRow(reportRow(r, rowLabel, cfg, rr, algo)...)
			}
		} else {
			tbl.AddRow(reportRow(r, label, cfg, rr, "")...)
		}
	}
	return tbl
}

// reportRow formats one table row; rowAlgo supplies the algorithm of
// per-algorithm-mode metric columns.
func reportRow(r scenario.Report, label string, cfg Config, rr *RepeatedResult, rowAlgo core.Algorithm) []string {
	row := make([]string, 0, len(r.Columns)+1)
	row = append(row, label)
	for _, c := range r.Columns {
		row = append(row, columnText(c, cfg, rr, rowAlgo))
	}
	return row
}

// columnText formats one metric cell.
func columnText(c scenario.Column, cfg Config, rr *RepeatedResult, rowAlgo core.Algorithm) string {
	if c.Metric == scenario.MetricReqPerSlot {
		edge := len(topo.MustBuild(cfg.Topology, cfg.TopologySeed).EdgeNodes())
		return fmt.Sprintf("%.0f", cfg.LambdaPerNode*float64(edge))
	}
	algo := core.Algorithm(c.Algo)
	if c.Algo == "" {
		algo = rowAlgo
	}
	var m MetricSummary
	format := FormatCI
	switch c.Metric {
	case scenario.MetricRejection:
		m = rr.Rejection[algo]
	case scenario.MetricBalance:
		m = rr.Balance[algo]
	case scenario.MetricCost:
		m, format = rr.Cost[algo], FormatCIg
	case scenario.MetricRuntime:
		m, format = rr.Runtime[algo], FormatCIg
	}
	if c.Format != "" {
		format = c.Format
	}
	if format == FormatCIg {
		return fmtCIg(m)
	}
	return fmtCI(m)
}

// Report formats re-exported for columnText (values match
// scenario.FormatCI/FormatCIg).
const (
	FormatCI  = scenario.FormatCI
	FormatCIg = scenario.FormatCIg
)

// ---- Detail scenarios (one full run, derived table) ----

// runDetailScenario executes the spec's single cell through the runner
// (cancellation, artifact caching keyed by the spec tag) and derives the
// table through the named view.
func runDetailScenario(sp *scenario.Spec, s Scale) ([]*Table, error) {
	cfg, err := s.scenarioConfig(sp.Base)
	if err != nil {
		return nil, err
	}
	d := sp.Detail
	var build func(*RunResult) (*Table, error)
	switch d.View {
	case "slot-demand":
		build = func(rr *RunResult) (*Table, error) { return slotDemandTable(cfg, d, rr) }
	case "node-breakdown":
		build = func(rr *RunResult) (*Table, error) { return nodeBreakdownTable(cfg, d, rr) }
	default:
		return nil, fmt.Errorf("sim: %s: unknown detail view %q (valid: slot-demand, node-breakdown)", sp.Name, d.View)
	}
	tbl, err := runTableCell(sp.Tag(), cfg, s.Runner, build)
	if err != nil {
		return nil, err
	}
	return []*Table{tbl}, nil
}

// slotDemandTable renders the per-slot requested vs allocated demand of
// one run over the view's zoom window (Fig. 8). The window starts at
// ZoomFrom at paper scale; online phases too short for it fall back to
// one third of the phase, preserving the paper's proportions.
func slotDemandTable(cfg Config, d *scenario.Detail, rr *RunResult) (*Table, error) {
	from := d.ZoomFrom
	if cfg.OnlineSlots < d.ZoomFrom+d.ZoomLen {
		from = cfg.OnlineSlots / 3
	}
	to := min(from+d.ZoomLen, cfg.OnlineSlots)
	tbl := &Table{
		Title:  strings.ReplaceAll(d.Title, "{slots}", fmt.Sprintf("%d-%d", from, to)),
		Header: make([]string, 0, len(cfg.Algorithms)+2),
	}
	tbl.Header = append(tbl.Header, "slot", "requested")
	for _, algo := range cfg.Algorithms {
		tbl.Header = append(tbl.Header, string(algo))
	}
	requested := rr.Results[cfg.Algorithms[0]].PerSlotRequested
	for t := from; t < to; t++ {
		row := make([]string, 0, len(cfg.Algorithms)+2)
		row = append(row, fmt.Sprintf("%d", t), fmt.Sprintf("%.1f", requested[t]/100))
		for _, algo := range cfg.Algorithms {
			row = append(row, fmt.Sprintf("%.1f", rr.Results[algo].PerSlotAccepted[t]/100))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// nodeBreakdownTable renders the per-application breakdown of one
// substrate node under the first configured algorithm (Fig. 12): the
// plan's guaranteed demand vs the classification of the node's requests
// into guaranteed / borrowed / preempted / rejected.
func nodeBreakdownTable(cfg Config, d *scenario.Detail, rr *RunResult) (*Table, error) {
	node, ok := topo.FindNode(rr.Substrate, d.Node)
	if !ok {
		return nil, fmt.Errorf("sim: %s lacks a %q node", cfg.Topology, d.Node)
	}
	ar := rr.Results[cfg.Algorithms[0]]
	tbl := &Table{
		Title:  d.Title,
		Header: []string{"app", "guaranteed demand", "peak active demand", "guaranteed", "borrowed", "preempted", "rejected"},
	}
	for appIdx, app := range rr.Apps {
		var guar float64
		if cp := rr.Plan.Lookup(appIdx, node); cp != nil {
			guar = cp.PlannedDemand()
		}
		active := make([]float64, cfg.OnlineSlots+1)
		var nGuar, nBorrow, nPreempt, nRej int
		for _, rec := range ar.Log {
			if rec.Ingress != node || rec.App != appIdx {
				continue
			}
			switch {
			case !rec.Accepted:
				nRej++
			case rec.Preempted:
				nPreempt++
			case rec.Planned:
				nGuar++
			default:
				nBorrow++
			}
			if rec.Accepted {
				end := rec.Arrive + rec.Duration
				if rec.Preempted && rec.PreemptSlot < end {
					end = rec.PreemptSlot
				}
				if end > cfg.OnlineSlots {
					end = cfg.OnlineSlots
				}
				for t := rec.Arrive; t < end; t++ {
					active[t] += rec.Demand
				}
			}
		}
		peak := 0.0
		for _, v := range active {
			if v > peak {
				peak = v
			}
		}
		tbl.AddRow(app.Name,
			fmt.Sprintf("%.0f", guar),
			fmt.Sprintf("%.0f", peak),
			fmt.Sprintf("%d", nGuar), fmt.Sprintf("%d", nBorrow),
			fmt.Sprintf("%d", nPreempt), fmt.Sprintf("%d", nRej))
	}
	return tbl, nil
}

// ---- Static scenarios (simulation-free tables) ----

// runStaticScenario renders a named simulation-free table.
func runStaticScenario(sp *scenario.Spec) ([]*Table, error) {
	switch sp.Static {
	case "topologies":
		tbl, err := topologyInventoryTable()
		if err != nil {
			return nil, err
		}
		return []*Table{tbl}, nil
	case "settings":
		return []*Table{settingsTable()}, nil
	default:
		return nil, fmt.Errorf("sim: %s: unknown static table %q (valid: topologies, settings)", sp.Name, sp.Static)
	}
}

// topologyInventoryTable regenerates Table II: the topology inventory.
func topologyInventoryTable() (*Table, error) {
	tbl := &Table{
		Title:  "Table II: topologies",
		Header: []string{"topology", "nodes", "links", "edge/transport/core", "description"},
	}
	specs := topo.Specs()
	for _, name := range topo.All() {
		sp := specs[name]
		g, err := topo.Build(name, 1)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(string(name),
			fmt.Sprintf("%d", g.NumNodes()), fmt.Sprintf("%d", g.NumLinks()),
			fmt.Sprintf("%d/%d/%d", sp.EdgeN, sp.TransportN, sp.CoreN),
			sp.Description)
	}
	return tbl, nil
}

// settingsTable echoes the experimental settings (Table III) as realized
// by this reproduction.
func settingsTable() *Table {
	tbl := &Table{
		Title:  "Table III: experimental settings",
		Header: []string{"parameter", "value"},
	}
	tbl.AddRow("Node popularity", "Zipf(α=1)")
	tbl.AddRow("Plan period", "5400 slots")
	tbl.AddRow("Test period", "600 slots")
	tbl.AddRow("Request size", "N(10, 2²), mean scaled 6–14 with utilization")
	tbl.AddRow("Request duration", "Exponential, mean 10")
	tbl.AddRow("Requests per node (λ)", "10 per slot")
	tbl.AddRow("Applications", "2 chain, 1 tree, 1 accelerator")
	tbl.AddRow("VNFs", "U(3,5)")
	tbl.AddRow("Element sizes", "N(50, 30²)")
	tbl.AddRow("Rejection quantiles", fmt.Sprintf("%d", plan.DefaultOptions().Quantiles))
	return tbl
}
