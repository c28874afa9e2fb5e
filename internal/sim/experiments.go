package sim

import (
	"fmt"
	"io"
	"strings"

	"github.com/olive-vne/olive/internal/topo"
)

// Table is a printable experiment result: the rows/series a paper figure
// or table reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Scale bundles the knobs that trade fidelity for runtime. PaperScale
// reproduces Table III; SmokeScale shrinks every dimension for tests and
// smoke runs while preserving the comparisons' shape.
type Scale struct {
	Reps          int
	HistSlots     int
	OnlineSlots   int
	LambdaPerNode float64
	MeasureFrom   int
	MeasureTo     int
	Utils         []float64
	Seed          uint64
	// Runner configures the parallel experiment runner every generator
	// fans its cells out through. The zero value uses GOMAXPROCS
	// workers with no artifact store.
	Runner RunnerOptions
}

// sweep fans the cells out through the scale's runner.
func (s Scale) sweep(cells []SweepCell) ([]*RepeatedResult, error) {
	return RunSweep(cells, s.Runner)
}

// PaperScale returns the full Table III parameters (30 reps × 6000 slots).
func PaperScale() Scale {
	return Scale{
		Reps: 30, HistSlots: 5400, OnlineSlots: 600, LambdaPerNode: 10,
		MeasureFrom: 100, MeasureTo: 500,
		Utils: []float64{0.6, 0.8, 1.0, 1.2, 1.4},
		Seed:  1,
	}
}

// SmokeScale returns a reduced configuration (~100× fewer requests) for
// tests and smoke runs.
func SmokeScale() Scale {
	return Scale{
		Reps: 2, HistSlots: 150, OnlineSlots: 50, LambdaPerNode: 3,
		MeasureFrom: 5, MeasureTo: 45,
		Utils: []float64{0.6, 1.0, 1.4},
		Seed:  1,
	}
}

func (s Scale) config(t topo.Name, util float64) Config {
	c := DefaultConfig(t, util, s.Seed)
	c.HistSlots = s.HistSlots
	c.OnlineSlots = s.OnlineSlots
	c.LambdaPerNode = s.LambdaPerNode
	c.MeasureFrom = s.MeasureFrom
	c.MeasureTo = s.MeasureTo
	if s.HistSlots < 1000 {
		c.PlanOptions.BootstrapB = 30
		c.PlanOptions.MaxPricingRounds = 4
	}
	return c
}

func fmtCI(m MetricSummary) string {
	return fmt.Sprintf("%.3f±%.3f", m.Mean, m.Hi-m.Mean)
}

func fmtCIg(m MetricSummary) string {
	return fmt.Sprintf("%.3g±%.2g", m.Mean, m.Hi-m.Mean)
}
