package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the tracer's epoch.
// Parent is the index of the enclosing span (-1 for a root) and Req ties
// the spans of one request together (-1 when the span serves no single
// request).
type span struct {
	Name       uint16
	Start, End int64
	Parent     int32
	Req        int32
}

// tracer collects spans into one pre-sized slice. It is not safe for
// concurrent use: concurrent recorders (the serve workload's callers and
// handlers) each own a tracer and merge at the end.
type tracer struct {
	epoch time.Time
	names []string
	index map[string]uint16
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, index: map[string]uint16{}, spans: make([]span, 0, capacity)}
}

// name interns a span name; call it outside the timed loop.
func (t *tracer) name(s string) uint16 {
	if id, ok := t.index[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = id
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name uint16, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].End = t.now() }

// add records a span whose endpoints the caller already measured.
func (t *tracer) add(name uint16, start, end int64, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) reset() { t.spans = t.spans[:0] }

// durations returns the duration in nanoseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == id {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once). Children are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(x, y int) bool { return ks[x].a < ks[y].a })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			a, b := max(k.a, hi), min(k.b, s.End)
			if b > a {
				covered += b - a
				hi = b
			}
		}
		self[i] -= covered
	}
	return self
}

// write stores the spans as JSON: a name table and one
// [name, start_ns, end_ns, parent, request] row per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names, _ := json.Marshal(t.names)
	fmt.Fprintf(w, "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\n\"names\":%s,\n\"spans\":[", names)
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, "%s[%d,%d,%d,%d,%d]", sep, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reserve makes room for n more spans, so that recording never grows the
// slice inside a timed region.
func (t *tracer) reserve(n int) {
	if cap(t.spans)-len(t.spans) < n {
		grown := make([]span, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
}
