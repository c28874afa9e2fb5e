package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the gzip'd profile.proto that runtime/pprof writes,
// enough to attribute CPU samples to layers: the module stays free of
// dependencies, so github.com/google/pprof/profile is not available.
// Field numbers are those of pprof's profile.proto.

// cpuSample is one stack, leaf first, with its weight (the profile's last
// value column: CPU nanoseconds in a Go CPU profile).
type cpuSample struct {
	Stack []string // function names, leaf first, inlined frames expanded
	Value int64
}

type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("pprof: varint overflows 64 bits")
	return 0
}

func (r *protoReader) bytes() []byte {
	n := r.varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// fields calls fn for every field of a message. Varint fields pass their
// value in v; length-delimited fields pass their payload in data.
func fields(msg []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	r := protoReader{b: msg}
	for len(r.b) > 0 && r.err == nil {
		key := r.varint()
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v = r.varint()
		case 1:
			if len(r.b) < 8 {
				return io.ErrUnexpectedEOF
			}
			r.b = r.b[8:]
		case 2:
			data = r.bytes()
		case 5:
			if len(r.b) < 4 {
				return io.ErrUnexpectedEOF
			}
			r.b = r.b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if r.err != nil {
			return r.err
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return r.err
}

// repeatedVarints appends a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// parseCPUProfile decodes a gzip'd (or raw) profile.proto into samples.
func parseCPUProfile(raw []byte) ([]cpuSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err := fields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			if err := fields(data, func(num, wire int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, wire, v, data)
				case 2:
					s.values, err = repeatedVarints(s.values, wire, v, data)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{Value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					cs.Stack = append(cs.Stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const repoPrefix = "github.com/olive-vne/olive/"

// funcPackage returns the import path of a Go symbol name such as
// "net/http.(*conn).serve" or "github.com/x/y/internal/lp.(*Problem).Solve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfPackage maps an import path to a layer of the share table, or ""
// when the package is not a layer of its own (the standard library and
// the repository's helper packages, which are charged to whichever layer
// called them).
func layerOfPackage(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, repoPrefix+"internal/"):
		switch l := strings.TrimPrefix(pkg, repoPrefix+"internal/"); l {
		case "lp", "plan", "embedder", "graph", "substrate", "core", "serve", "obs":
			return l
		case "workload", "topo":
			return "workload"
		}
		// vnet's embeddings and stats' percentiles are helpers of
		// whichever layer calls them.
		return ""
	case pkg == "main", strings.HasPrefix(pkg, repoPrefix+"bench"):
		return "loadgen"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "bufio":
		return "nethttp"
	}
	return ""
}

// shareLayers lists every row of the CPU-share table; the shares over
// these rows sum to 1.
var shareLayers = []string{"lp", "plan", "embedder", "graph", "substrate", "core", "serve", "obs", "workload", "loadgen", "nethttp", "runtime", "other"}

// layerOfStack attributes one sample. The leaf function's package decides
// when it is a layer; otherwise the sample is charged to the nearest
// caller that is one, so that the map operations, allocation, sorting and
// JSON coding a layer asks for count as that layer's CPU. Stacks with no
// layer frame at all are the runtime's own work (garbage collection,
// scheduling) when the leaf is in package runtime, and "other" if not.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOfPackage(funcPackage(fn)); l != "" {
			return l
		}
	}
	if len(stack) > 0 && funcPackage(stack[0]) == "runtime" {
		return "runtime"
	}
	return "other"
}

// cpuShares returns each layer's share of the profile's CPU time.
func cpuShares(samples []cpuSample) map[string]float64 {
	shares := make(map[string]float64, len(shareLayers))
	var total float64
	for _, s := range samples {
		shares[layerOfStack(s.Stack)] += float64(s.Value)
		total += float64(s.Value)
	}
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] /= total
		}
	}
	return shares
}
