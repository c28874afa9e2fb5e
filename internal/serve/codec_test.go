package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
)

// embedBodySeeds are FuzzEmbedBody's seeds: canonical bodies and the
// shapes next to them that encoding/json treats in its own way.
var embedBodySeeds = []string{
	`{"app":1,"ingress":2,"demand":0.5,"duration":3,"arrive":4}`,
	`{"app":0,"ingress":0,"demand":0.001,"duration":1}`,
	`{"arrive":4,"duration":3,"demand":0.5,"ingress":2,"app":1}`,
	" \t\n{ \"app\" : 1 ,\r\n \"demand\" : 2.5e-3 } \n",
	`{"app":-0,"ingress":0,"demand":-0,"duration":1}`,
	`{"demand":1E+2,"duration":7}`,
	`{}`,
	`{"APP":1,"Ingress":2,"demand":1,"duration":1}`,
	`{"app":1,"ingress":2,"demand":1,"duration":1,"extra":true}`,
	`{"app":1,"extra":{"nested":[1,2]},"demand":1}`,
	`null`,
	`{"app":null,"demand":1,"duration":1}`,
	`{"app":1e3,"demand":1,"duration":1}`,
	`{"app":1.0,"demand":1,"duration":1}`,
	`{"app":1,"app":2,"demand":1}`,
	`{"app":9223372036854775807,"demand":1}`,
	`{"app":9223372036854775808,"demand":1}`,
	`{"app":-9223372036854775809,"demand":1}`,
	`{"demand":1e400}`,
	`{"demand":1e-400}`,
	`{"d\u0065mand":1}`,
	`{"app":"1"}`,
	`{"app":01}`,
	`{"app":1,}`,
	`{"app":1}x`,
	`{"app":-}`,
	`{"demand":.5}`,
	`{"demand":1.}`,
	`[1]`,
	``,
}

// FuzzEmbedBody: the embed body decoder agrees with json.Unmarshal on
// every input — the same verdict, and on success the same request, with
// Demand compared bit for bit. The fast parser may decline any body, but
// a body it accepts json.Unmarshal must accept, with the same result.
func FuzzEmbedBody(f *testing.F) {
	for _, s := range embedBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref EmbedRequest
		refErr := json.Unmarshal(b, &ref)
		var fast EmbedRequest
		if parseEmbedRequest(b, &fast) {
			if refErr != nil {
				t.Fatalf("fast parser accepted %q, json.Unmarshal refuses it: %v", b, refErr)
			}
			if !sameEmbedRequest(fast, ref) {
				t.Fatalf("fast parser read %q as %+v, json.Unmarshal as %+v", b, fast, ref)
			}
		}
		got, err := decodeEmbedRequest(b)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeEmbedRequest(%q) error %v, json.Unmarshal error %v", b, err, refErr)
		}
		if err == nil && !sameEmbedRequest(got, ref) {
			t.Fatalf("decodeEmbedRequest read %q as %+v, json.Unmarshal as %+v", b, got, ref)
		}
	})
}

func sameEmbedRequest(a, b EmbedRequest) bool {
	return a.App == b.App && a.Ingress == b.Ingress && a.Duration == b.Duration &&
		a.Arrive == b.Arrive && math.Float64bits(a.Demand) == math.Float64bits(b.Demand)
}

// TestParseEmbedRequestShapes pins which bodies take the fast path: the
// canonical shape in any key order and spacing does, and everything
// encoding/json treats in its own way (case-folded or unknown keys, null,
// duplicates, fractions or exponents in ints, overflow) does not.
func TestParseEmbedRequestShapes(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"app":1,"ingress":2,"demand":0.5,"duration":3,"arrive":4}`, true},
		{`{"arrive":4,"duration":3,"demand":0.5,"ingress":2,"app":1}`, true},
		{" \t\n{ \"app\" : 1 ,\r\n \"demand\" : 2.5e-3 } \n", true},
		{`{"app":-0,"demand":-0,"duration":1}`, true},
		{`{"app":9223372036854775807,"demand":1}`, true},
		{`{}`, true},
		{`{"APP":1,"demand":1}`, false},
		{`{"app":1,"extra":true}`, false},
		{`null`, false},
		{`{"app":null}`, false},
		{`{"app":1,"app":2}`, false},
		{`{"app":1e3}`, false},
		{`{"app":1.0}`, false},
		{`{"app":9223372036854775808}`, false},
		{`{"demand":1e400}`, false},
		{`{"d\u0065mand":1}`, false},
		{`{"app":1}x`, false},
	} {
		var er EmbedRequest
		if got := parseEmbedRequest([]byte(tc.body), &er); got != tc.fast {
			t.Errorf("parseEmbedRequest(%q) = %v, want %v", tc.body, got, tc.fast)
		}
	}
	var er EmbedRequest
	if !parseEmbedRequest([]byte(`{"app":1,"ingress":2,"demand":0.5,"duration":3,"arrive":4}`), &er) ||
		er != (EmbedRequest{App: 1, Ingress: 2, Demand: 0.5, Duration: 3, Arrive: 4}) {
		t.Fatalf("canonical body read as %+v", er)
	}
}

// TestEmbedResponseMatchesEncoder: writeEmbedResponse answers with the
// status, headers and bytes writeJSON — json.NewEncoder(w).Encode — gives
// the same response, over a table of edge cases and random responses.
// A non-finite Cost, which encoding/json refuses, goes to writeJSON.
func TestEmbedResponseMatchesEncoder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nodes := []graph.NodeID{0, 7, 12, 7}
	cases := []EmbedResponse{
		{},
		{ID: 1, Shard: 1, Slot: 9, Accepted: true, Planned: true, Cost: 123.456, Nodes: nodes, Preempted: []int{3, 1}, LatencyUS: 17},
		{ID: 2, Cost: negZero, Nodes: []graph.NodeID{}, Preempted: []int{}},
		{ID: 3, Accepted: true, Cost: 1e-7, Nodes: nodes[:1]},
		{ID: 4, Cost: 1e21, Preempted: []int{math.MaxInt}},
		{ID: 5, Cost: 1e20, LatencyUS: -1},
		{ID: 6, Cost: 1e-6},
		{ID: 7, Cost: 9.999999e-7},
		{ID: 8, Cost: -2.5e-300},
		{ID: 9, Cost: math.MaxFloat64},
		{ID: 10, Cost: math.SmallestNonzeroFloat64},
		{ID: math.MinInt, Shard: -1, Slot: math.MaxInt, Cost: 0.1},
	}
	rng := rand.New(rand.NewPCG(53, 53))
	for len(cases) < 2000 {
		er := EmbedResponse{
			ID:        rng.IntN(1 << 40),
			Shard:     rng.IntN(8),
			Slot:      rng.IntN(1 << 20),
			Accepted:  rng.IntN(2) == 1,
			Planned:   rng.IntN(2) == 1,
			LatencyUS: rng.Int64N(1 << 30),
		}
		switch rng.IntN(3) {
		case 0:
			er.Cost = math.Float64frombits(rng.Uint64())
		case 1:
			er.Cost = rng.Float64() * math.Pow(10, float64(rng.IntN(50)-25))
		default:
			er.Cost = float64(rng.IntN(1000)) / 8
		}
		if math.IsNaN(er.Cost) || math.IsInf(er.Cost, 0) {
			continue
		}
		if k := rng.IntN(6) - 1; k >= 0 {
			er.Nodes = make([]graph.NodeID, k)
			for i := range er.Nodes {
				er.Nodes[i] = graph.NodeID(rng.IntN(200))
			}
		}
		if k := rng.IntN(4) - 1; k >= 0 {
			er.Preempted = make([]int, k)
			for i := range er.Preempted {
				er.Preempted[i] = rng.IntN(1 << 30)
			}
		}
		cases = append(cases, er)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, EmbedResponse{ID: 11, Cost: c})
	}

	buf := bytes.NewBufferString("stale bytes from the request body")
	for i := range cases {
		er := &cases[i]
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, er)
		got := httptest.NewRecorder()
		writeEmbedResponse(got, buf, er)
		if got.Code != want.Code {
			t.Fatalf("%+v: status %d, want %d", *er, got.Code, want.Code)
		}
		if !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("%+v: headers %v, want %v", *er, got.Header(), want.Header())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%+v:\n got %q\nwant %q", *er, got.Body.Bytes(), want.Body.Bytes())
		}
		finite := !math.IsNaN(er.Cost) && !math.IsInf(er.Cost, 0)
		if _, ok := appendEmbedResponse(nil, er); ok != finite {
			t.Fatalf("appendEmbedResponse(cost %v) ok = %v, want %v", er.Cost, ok, finite)
		}
	}
}
