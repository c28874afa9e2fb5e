// Package scenario is the declarative experiment layer of the
// reproduction: a JSON-serializable Spec describes an experiment as named
// axes over the simulation configuration — topology, utilization sweep,
// trace kind, application mix, algorithms, arrival rate, plan windows,
// the plan-input stressors — plus report definitions that generalize the
// paper figures' table/CI formatting. A grid expander deterministically
// enumerates the cross product of the axes; the simulation layer
// (internal/sim.RunScenario) turns the expanded grid into sweep cells,
// fans them out through the parallel runner, and renders the reports.
//
// Every figure and table of the paper lives in this package's registry as
// a built-in Spec (builtin.go); arbitrary user scenarios load from JSON
// (Load) and run through the same machinery — `vnesim -scenario spec.json`.
//
// The package is pure data: it does not import the simulation engine. A
// configuration patch is the JSON object it is written in; internal/sim
// binds it onto its configuration and rejects an unknown key or an
// invalid value (a topology, algorithm, trace or application-kind name)
// there, before any cell runs.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"

	"github.com/olive-vne/olive/internal/runner"
)

// Spec declares one experiment: a base configuration patch, swept axes,
// repetition counts, and either aggregate reports over the expanded grid,
// a single-run detail view, or a static (simulation-free) table.
type Spec struct {
	// Name identifies the scenario; it becomes part of every artifact key
	// (with the spec hash), so two scenarios never collide in a shared
	// artifact store.
	Name string `json:"name"`
	// Description is the one-line summary `vnesim -list` prints.
	Description string `json:"description,omitempty"`

	// Base patches the scale's default configuration before any axis
	// patch applies.
	Base Patch `json:"base"`
	// Axes are the swept dimensions; the grid is their cross product in
	// axis order (the first axis varies slowest).
	Axes []Axis `json:"axes,omitempty"`

	// Reps, when positive, overrides the scale's repetition count.
	Reps int `json:"reps,omitempty"`
	// MaxReps, when positive, caps the repetition count (the runtime
	// figures run min(reps, 3) even at paper scale).
	MaxReps int `json:"maxReps,omitempty"`

	// Exactly one of Reports, Detail and Static must be set.

	// Reports render the aggregated sweep as one table each.
	Reports []Report `json:"reports,omitempty"`
	// Detail renders one full simulation run through a named view
	// (per-slot demand, per-node breakdown) instead of aggregating.
	Detail *Detail `json:"detail,omitempty"`
	// Static names a simulation-free table generator (topology
	// inventory, experimental settings).
	Static string `json:"static,omitempty"`
}

// Patch is a partial simulation configuration: the JSON object a spec
// writes it as (`{"utilization":1.4}`), its keys in the order and spelling
// written, so the spec's hash covers it as written. Each key names one
// configuration knob, and keys left out keep the base value. internal/sim
// lists the keys in one place and checks keys and values when it binds a
// spec, which keeps this package free of engine imports. The empty patch
// writes as {}.
type Patch []byte

// MarshalJSON writes the patch as written, or {} when it is empty.
func (p Patch) MarshalJSON() ([]byte, error) {
	if len(p) == 0 {
		return []byte("{}"), nil
	}
	return p, nil
}

// UnmarshalJSON keeps a copy of a JSON object; null reads as {}.
func (p *Patch) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*p = nil
		return nil
	}
	if err := Patch(b).check(); err != nil {
		return err
	}
	*p = append(Patch(nil), b...)
	return nil
}

// check reports whether the patch is empty or one JSON object.
func (p Patch) check() error {
	if len(p) > 0 && (!json.Valid(p) || bytes.TrimSpace(p)[0] != '{') {
		return fmt.Errorf("patch %s is not a JSON object", p)
	}
	return nil
}

// Axis is one swept dimension: an ordered list of labeled configuration
// patches, or the running scale's utilization sweep.
type Axis struct {
	// Name labels the axis (documentation and error messages).
	Name string `json:"name"`
	// ScaleUtils, when true, draws the values from the running scale's
	// utilization sweep (labels "60%", "80%", …) instead of Values. This
	// is how the paper sweeps respond to `vnesim -utils`.
	ScaleUtils bool `json:"scaleUtils,omitempty"`
	// Values are the axis points in sweep order.
	Values []AxisValue `json:"values,omitempty"`
}

// AxisValue is one axis point: a row/series label and the patch it applies.
type AxisValue struct {
	// Label becomes (part of) the row label. It may be empty: a grid
	// point whose label is empty and whose report reads per-algorithm
	// metrics labels its rows by algorithm name alone (Fig. 13's
	// reference rows).
	Label string `json:"label"`
	Patch Patch  `json:"patch"`
}

// Report declares one output table over the expanded grid.
type Report struct {
	// Title is the table title; the placeholder {topo} resolves to the
	// base configuration's topology at render time.
	Title string `json:"title"`
	// RowHeader is the label column's header ("util", "variant", …).
	RowHeader string `json:"rowHeader"`
	// Columns are the value columns, one table column each.
	Columns []Column `json:"columns"`
}

// Metric names accepted by Column.Metric.
const (
	MetricRejection  = "rejection"
	MetricCost       = "cost"
	MetricBalance    = "balance"
	MetricRuntime    = "runtime"
	MetricReqPerSlot = "req-per-slot" // derived: λ · edge-node count
)

// Column formats. The empty format defaults per metric: rejection and
// balance use "ci" (%.3f±%.3f), cost and runtime use "cig" (%.3g±%.2g).
const (
	FormatCI  = "ci"
	FormatCIg = "cig"
)

// Column is one value column of a report.
type Column struct {
	Header string `json:"header"`
	// Metric selects what the column reports: "rejection", "cost",
	// "balance", "runtime", or the derived "req-per-slot".
	Metric string `json:"metric"`
	// Algo fixes the algorithm the column reads. When empty (and the
	// metric is not derived), the report is in per-algorithm row mode:
	// each grid point emits one row per configured algorithm, reading
	// that algorithm's metric. A report must not mix fixed-algorithm and
	// per-algorithm metric columns.
	Algo string `json:"algo,omitempty"`
	// Format overrides the metric's default CI format ("ci" or "cig").
	Format string `json:"format,omitempty"`
}

// perAlgo reports whether the column participates in per-algorithm row
// mode (an unfixed metric column; derived columns are algorithm-free).
func (c Column) perAlgo() bool { return c.Algo == "" && c.Metric != MetricReqPerSlot }

// Detail declares a single-run detail view: the cell described by the
// spec's base patch runs once and a named view derives the table from the
// full simulation result (request log, plan, substrate).
type Detail struct {
	// View names the derivation; internal/sim implements "slot-demand"
	// (Fig. 8) and "node-breakdown" (Fig. 12).
	View string `json:"view"`
	// Title is the table title. The slot-demand view substitutes the
	// placeholder {slots} with the resolved zoom window ("200-230").
	Title string `json:"title"`
	// Node is the substrate node the node-breakdown view zooms into.
	Node string `json:"node,omitempty"`
	// ZoomFrom/ZoomLen bound the slot-demand view's window. The window
	// starts at ZoomFrom at paper scale; shorter online phases fall back
	// to one third of the phase, preserving the paper's proportions.
	ZoomFrom int `json:"zoomFrom,omitempty"`
	ZoomLen  int `json:"zoomLen,omitempty"`
}

// nameRe bounds scenario names: they are embedded in artifact keys and
// file-system-adjacent contexts, so keep them to a tame character set.
var nameRe = regexp.MustCompile(`^[a-zA-Z0-9._+-]+$`)

// Validate checks the spec's structure, each patch being a JSON object.
// Patch keys and values are checked later, when internal/sim binds the
// spec to a concrete configuration.
func (s *Spec) Validate() error {
	if s == nil {
		return errors.New("scenario: nil spec")
	}
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: invalid name %q (want %s)", s.Name, nameRe)
	}
	kinds := 0
	if len(s.Reports) > 0 {
		kinds++
	}
	if s.Detail != nil {
		kinds++
	}
	if s.Static != "" {
		kinds++
	}
	if kinds != 1 {
		return fmt.Errorf("scenario: %s: exactly one of reports, detail and static must be set", s.Name)
	}
	if s.Reps < 0 || s.MaxReps < 0 {
		return fmt.Errorf("scenario: %s: negative reps", s.Name)
	}
	if err := s.Base.check(); err != nil {
		return fmt.Errorf("scenario: %s: base: %w", s.Name, err)
	}
	for i, ax := range s.Axes {
		if ax.ScaleUtils == (len(ax.Values) > 0) {
			return fmt.Errorf("scenario: %s: axis %d (%s) needs either scaleUtils or explicit values", s.Name, i, ax.Name)
		}
		for _, v := range ax.Values {
			if err := v.Patch.check(); err != nil {
				return fmt.Errorf("scenario: %s: axis %d (%s): %w", s.Name, i, ax.Name, err)
			}
		}
	}
	if s.Detail != nil || s.Static != "" {
		if len(s.Axes) > 0 {
			return fmt.Errorf("scenario: %s: detail/static scenarios take no axes", s.Name)
		}
		if s.Detail != nil && s.Detail.View == "" {
			return fmt.Errorf("scenario: %s: detail view must be named", s.Name)
		}
	}
	for ri, r := range s.Reports {
		if len(r.Columns) == 0 {
			return fmt.Errorf("scenario: %s: report %d has no columns", s.Name, ri)
		}
		fixed, per := 0, 0
		for ci, c := range r.Columns {
			switch c.Metric {
			case MetricRejection, MetricCost, MetricBalance, MetricRuntime, MetricReqPerSlot:
			default:
				return fmt.Errorf("scenario: %s: report %d column %d: unknown metric %q (valid: %s, %s, %s, %s, %s)",
					s.Name, ri, ci, c.Metric,
					MetricRejection, MetricCost, MetricBalance, MetricRuntime, MetricReqPerSlot)
			}
			switch c.Format {
			case "", FormatCI, FormatCIg:
			default:
				return fmt.Errorf("scenario: %s: report %d column %d: unknown format %q (valid: %s, %s)",
					s.Name, ri, ci, c.Format, FormatCI, FormatCIg)
			}
			if c.Metric != MetricReqPerSlot {
				if c.perAlgo() {
					per++
				} else {
					fixed++
				}
			}
		}
		if fixed > 0 && per > 0 {
			return fmt.Errorf("scenario: %s: report %d mixes fixed-algorithm and per-algorithm columns", s.Name, ri)
		}
	}
	return nil
}

// PerAlgoRows reports whether the report is in per-algorithm row mode:
// its metric columns float with each grid point's configured algorithms.
func (r Report) PerAlgoRows() bool {
	for _, c := range r.Columns {
		if c.perAlgo() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the spec (wrappers parameterize registry
// specs — topology, λ values — without mutating the registered original).
func (s *Spec) Clone() *Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone %s: %v", s.Name, err))
	}
	var c Spec
	if err := json.Unmarshal(b, &c); err != nil {
		panic(fmt.Sprintf("scenario: clone %s: %v", s.Name, err))
	}
	return &c
}

// Hash returns a stable 64-bit hash of the spec's canonical JSON form,
// hex-encoded. Any change to the spec — an axis value, a report column, a
// base patch — changes the hash; it is folded into every artifact key so
// resumed sweeps never reuse artifacts computed under a different spec.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: hash %s: %v", s.Name, err))
	}
	return fmt.Sprintf("%016x", runner.Hash64(string(b)))
}

// Tag returns the scenario's artifact-key component: name@hash.
func (s *Spec) Tag() string { return s.Name + "@" + s.Hash() }

// Load reads and validates one JSON spec.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
