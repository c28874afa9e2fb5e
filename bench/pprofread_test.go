package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// protoBuf writes the few protobuf shapes profile.proto uses.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *protoBuf) uint(field int, v uint64) { b.varint(uint64(field)<<3 | 0); b.varint(v) }

func (b *protoBuf) msg(field int, body []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(body)))
	b.Write(body)
}

func (b *protoBuf) packed(field int, vs ...uint64) {
	var p protoBuf
	for _, v := range vs {
		p.varint(v)
	}
	b.msg(field, p.Bytes())
}

// buildProfile encodes stacks (leaf first; a frame given as {"a", "b"}
// is one location with b and a inlined into... a, the innermost first)
// with a sample count and CPU nanoseconds each.
func buildProfile(t *testing.T, stacks [][][]string, nanos []uint64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var funcs, locs, samples protoBuf
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locIDs []uint64
		for _, frame := range stack {
			var loc protoBuf
			loc.uint(1, nextLoc)
			loc.uint(3, 0x1000+nextLoc) // address
			for _, fn := range frame {
				if _, ok := funcID[fn]; !ok {
					funcID[fn] = uint64(len(funcID) + 1)
					var f protoBuf
					f.uint(1, funcID[fn])
					f.uint(2, intern(fn))
					f.uint(4, intern("file.go"))
					funcs.msg(5, f.Bytes())
				}
				var line protoBuf
				line.uint(1, funcID[fn])
				line.uint(2, 42)
				loc.msg(4, line.Bytes())
			}
			locs.msg(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var s protoBuf
		s.packed(1, locIDs...)
		s.packed(2, 1, nanos[i])
		samples.msg(2, s.Bytes())
	}
	var prof protoBuf
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoBuf
		vt.uint(1, intern(st[0]))
		vt.uint(2, intern(st[1]))
		prof.msg(1, vt.Bytes())
	}
	prof.Write(samples.Bytes())
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.msg(6, []byte(s))
	}
	prof.uint(10, 10_000_000) // period, after the tables on purpose
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestCPUSharesOnHandBuiltProfile(t *testing.T) {
	const repo = "github.com/olive-vne/olive/internal/"
	f := func(names ...string) []string { return names }
	stacks := [][][]string{
		// A pivot: lp is the leaf.
		{f(repo + "lp.(*Problem).pivot"), f(repo + "plan.(*Solver).Build"), f("main.(*planBench).run")},
		// A map lookup the engine asked for: runtime leaf, core pays.
		{f("runtime.mapaccess2_fast64"), f(repo + "core.(*Engine).Process"), f("main.(*onlineBench).run")},
		// An embedding helper inlined into the engine: vnet is no layer.
		{f(repo+"vnet.(*Embedding).FitsResidual", repo+"core.(*Engine).planEmbed"), f(repo + "core.(*Engine).Process")},
		// The response write: net/http under the handler.
		{f("syscall.Syscall"), f("internal/poll.(*FD).Write"), f("net/http.(*response).finishRequest"), f("net/http.(*conn).serve")},
		// JSON the handler encodes: serve pays.
		{f("encoding/json.(*encodeState).marshal"), f(repo + "serve.writeJSON"), f("net/http.(*conn).serve")},
		// The collector on its own goroutine.
		{f("runtime.scanobject"), f("runtime.gcDrain"), f("runtime.gcBgMarkWorker")},
		// The callers' reply decoding.
		{f("encoding/json.Unmarshal"), f("main.(*caller).embed")},
		// Something with neither a layer nor the runtime in it.
		{f("os.(*File).Write"), f("log.Printf")},
		// A histogram observation inside the handler.
		{f(repo + "obs.(*Histogram).Observe"), f(repo + "serve.(*Server).handleEmbed")},
		// Input generation.
		{f(repo + "workload.GenerateMMPP"), f("main.(*scenario).trace")},
	}
	nanos := []uint64{300, 100, 100, 150, 50, 100, 50, 50, 40, 60}
	samples, err := parseCPUProfile(buildProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("%d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[2].Stack; len(got) != 3 || got[0] != repo+"vnet.(*Embedding).FitsResidual" || got[1] != repo+"core.(*Engine).planEmbed" {
		t.Errorf("inlined frames not expanded innermost first: %q", got)
	}
	want := map[string]float64{
		"lp": 0.3, "core": 0.2, "nethttp": 0.15, "serve": 0.05, "runtime": 0.1,
		"loadgen": 0.05, "other": 0.05, "obs": 0.04, "workload": 0.06,
	}
	shares := cpuShares(samples)
	var sum float64
	for _, l := range shareLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s: share %g, want %g", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/olive-vne/olive/internal/lp.(*Problem).Solve":        "github.com/olive-vne/olive/internal/lp",
		"github.com/olive-vne/olive/internal/plan.(*master).price.func1": "github.com/olive-vne/olive/internal/plan",
		"net/http.(*conn).serve":       "net/http",
		"runtime.mallocgc":             "runtime",
		"main.main":                    "main",
		"gopkg.in/yaml%2ev2.Unmarshal": "gopkg.in/yaml%2ev2",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The reader must also cope with what the runtime really writes.
func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 120*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples in 120 ms (no profiling timer on this host?)")
	}
	var sum float64
	for _, s := range cpuShares(samples) {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares of a real profile sum to %g (x=%g)", sum, x)
	}
	for _, s := range samples {
		if len(s.Stack) == 0 || s.Value <= 0 {
			t.Fatalf("sample without stack or weight: %+v", s)
		}
	}
}
