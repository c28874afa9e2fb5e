// Package obs is the observability substrate of the serving stack: a
// dependency-free, allocation-conscious metrics registry with a
// Prometheus-text exposition endpoint.
//
// Design constraints, in order:
//
//   - Hot-path updates are lock-free. Counters and gauges are single
//     atomics; histogram observations are a binary search plus two
//     atomic adds. Callers that sit on a per-request path resolve their
//     labeled series once at setup (With) and hold the pointer — no map
//     lookup, no allocation per update.
//   - Reads never block writes. Rendering walks the families under a
//     registration lock but reads every value through the same atomics
//     the writers use, so a scrape racing a burst of requests observes
//     a consistent-enough snapshot without stalling it.
//   - No dependencies. The container bakes in no Prometheus client
//     library; the text format is simple enough to emit (and, in
//     promtext.go, to parse back for CI lint) by hand.
//
// Families follow Prometheus conventions: `vne_` prefix, `_total`
// suffix on counters, `_seconds` unit suffix on histograms, lowercase
// snake-case label names. See CONTRIBUTING.md before adding families.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric kinds, also the TYPE strings of the text exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// atomicFloat is a float64 updated through its bit pattern. Add is a
// CAS loop (uncontended in practice: one writer per series on the
// decision path), Set/Value are single atomic ops.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value — a comparable handle
// onto one registry series, free to copy. The zero Counter is unusable
// (obtain one from a Registry). Decrements are a caller bug; the
// registry does not police them (the hot path stays branch-free) but
// the promtext linter flags counters that go backward across scrapes.
type Counter struct{ v *atomicFloat }

// Inc adds 1.
func (c Counter) Inc() { c.v.Add(1) }

// Add adds v (v ≥ 0 by contract).
func (c Counter) Add(v float64) { c.v.Add(v) }

// Value returns the current count.
func (c Counter) Value() float64 { return c.v.Value() }

// Gauge is a value that can go up and down; like Counter it is a
// copyable handle onto one registry series.
type Gauge struct{ v *atomicFloat }

// Set replaces the value.
func (g Gauge) Set(v float64) { g.v.Set(v) }

// Add adjusts the value by v (negative to decrease).
func (g Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.v.Value() }

// series is one labeled instance of a family. Exactly one of val, fn,
// hist is active, per the family kind.
type series struct {
	labelVals []string
	val       *atomicFloat   // counter, gauge
	fn        func() float64 // counterfunc, gaugefunc
	hist      *Histogram
}

// family is one metric family: a name, help text, a kind, and the
// labeled series under it.
type family struct {
	name       string
	help       string
	kind       string
	funcBacked bool
	labelNames []string
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order; render sorts for determinism
}

// Registry holds metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var nameOK = func(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register creates or revalidates a family. Re-registering an existing
// name with an identical shape returns the existing family (idempotent —
// packages wiring the same registry twice is not an error); a shape
// mismatch panics, because two call sites disagreeing on what a family
// is can only be a programming error.
func (r *Registry) register(name, help, kind string, funcBacked bool, labelNames []string, buckets []float64) *family {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !nameOK(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || f.funcBacked != funcBacked ||
			strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: family %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, funcBacked: funcBacked,
		labelNames: labelNames, buckets: buckets,
		series: make(map[string]*series),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// seriesFor returns (creating on first use) the series for the given
// label values.
func (f *family) seriesFor(vals []string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seriesForLocked(vals)
}

// bindFn creates (or finds) the series for vals and binds fn to it, in
// one critical section. Series can be registered while the registry is
// being scraped (the serving layer adds per-shard series on elastic
// resize), and a scrape snapshots a family's series under f.mu — binding
// inside the same section means any snapshot that sees the series also
// sees its fn. A series' fn is bound at most once.
func (f *family) bindFn(vals []string, fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seriesForLocked(vals).fn = fn
}

func (f *family) seriesForLocked(vals []string) *series {
	if len(vals) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: family %q wants %d label values, got %d", f.name, len(f.labelNames), len(vals)))
	}
	// The key (the values joined by NUL) is built in a stack buffer: a
	// lookup by string(b) does not allocate, so only a new series pays
	// for its key.
	var buf [128]byte
	b := buf[:0]
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, v...)
	}
	if s, ok := f.series[string(b)]; ok {
		return s
	}
	key := string(b)
	s := &series{labelVals: append([]string(nil), vals...)}
	switch {
	case f.kind == kindHistogram:
		s.hist = newHistogram(f.buckets)
	case !f.funcBacked:
		s.val = new(atomicFloat)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter registers (or finds) an unlabeled counter family.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, kindCounter, false, nil, nil)
	return Counter{f.seriesFor(nil).val}
}

// Gauge registers (or finds) an unlabeled gauge family.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, kindGauge, false, nil, nil)
	return Gauge{f.seriesFor(nil).val}
}

// Histogram registers (or finds) an unlabeled histogram family with the
// given bucket upper bounds (see LatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, false, nil, normalizeBuckets(buckets))
	return f.seriesFor(nil).hist
}

// CounterVec is a labeled counter family; With resolves one series.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, false, labelNames, nil)}
}

// With returns the counter for the given label values, creating it at
// zero on first use. Resolve once and hold the pointer on hot paths.
func (v *CounterVec) With(labelVals ...string) Counter {
	return Counter{v.f.seriesFor(labelVals).val}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, false, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) Gauge {
	return Gauge{v.f.seriesFor(labelVals).val}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, false, labelNames, normalizeBuckets(buckets))}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return v.f.seriesFor(labelVals).hist
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, true, nil, nil)
	f.bindFn(nil, fn)
}

// CounterFunc registers a counter whose value is read at scrape time
// from an external monotonic source (e.g. package-level solve counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, true, nil, nil)
	f.bindFn(nil, fn)
}

// GaugeFuncVec is a labeled family of scrape-time gauges.
type GaugeFuncVec struct{ f *family }

// GaugeFuncVec registers (or finds) a labeled scrape-time gauge family.
func (r *Registry) GaugeFuncVec(name, help string, labelNames ...string) *GaugeFuncVec {
	return &GaugeFuncVec{r.register(name, help, kindGauge, true, labelNames, nil)}
}

// With binds fn as the series for the given label values.
func (v *GaugeFuncVec) With(fn func() float64, labelVals ...string) {
	v.f.bindFn(labelVals, fn)
}

// CounterFuncVec is a labeled family of scrape-time counters.
type CounterFuncVec struct{ f *family }

// CounterFuncVec registers (or finds) a labeled scrape-time counter family.
func (r *Registry) CounterFuncVec(name, help string, labelNames ...string) *CounterFuncVec {
	return &CounterFuncVec{r.register(name, help, kindCounter, true, labelNames, nil)}
}

// With binds fn as the series for the given label values.
func (v *CounterFuncVec) With(fn func() float64, labelVals ...string) {
	v.f.bindFn(labelVals, fn)
}

// fmtFloat renders a sample value: shortest round-trip representation,
// matching the decision-line convention elsewhere in the repo.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writeLabels renders {a="x",b="y"}; extra ("le") is appended when set.
func writeLabels(sb *strings.Builder, names, vals []string, extraName, extraVal string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(vals[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(extraVal)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order; series
// within a family in sorted label order, so two scrapes of an idle
// registry are byte-identical.
func (r *Registry) WriteText(w io.StringWriter) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var sb strings.Builder
	for _, f := range fams {
		sb.Reset()
		sb.WriteString("# HELP ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(strings.ReplaceAll(f.help, "\n", " "))
		sb.WriteString("\n# TYPE ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(f.kind)
		sb.WriteByte('\n')

		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		snap := make([]*series, len(keys))
		sort.Strings(keys)
		for i, k := range keys {
			snap[i] = f.series[k]
		}
		f.mu.Unlock()

		for _, s := range snap {
			switch {
			case s.hist != nil:
				s.hist.writeText(&sb, f.name, f.labelNames, s.labelVals)
			default:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				} else {
					v = s.val.Value()
				}
				sb.WriteString(f.name)
				writeLabels(&sb, f.labelNames, s.labelVals, "", "")
				sb.WriteByte(' ')
				sb.WriteString(fmtFloat(v))
				sb.WriteByte('\n')
			}
		}
		w.WriteString(sb.String())
	}
}

// Handler serves GET /metrics in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		r.WriteText(&sb)
		w.Write([]byte(sb.String()))
	})
}

// Render returns the full exposition as a string (tests, CLI dumps).
func (r *Registry) Render() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}
