package embedder

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
)

// minLinkForward is minLink's reference: every child node w in index
// order, skipping +Inf entries, keeping the first strict minimum of
// size·dist + child cost.
func minLinkForward(du []float64, size float64, childCost []float64) (float64, graph.NodeID) {
	best := math.Inf(1)
	bestW := graph.NodeID(-1)
	for w, cw := range childCost {
		if math.IsInf(cw, 1) {
			continue
		}
		if c := size*du[w] + cw; c < best {
			best, bestW = c, graph.NodeID(w)
		}
	}
	return best, bestW
}

// randomScanRow draws a child row of n entries and a parent distance row
// for node x: small-integer costs and distances so that ties are common,
// +Inf entries (sometimes a whole row of them), -0 beside +0, NaN child
// costs, and a zero distance at w = x.
func randomScanRow(rng *rand.Rand, n int, x int) (row, du []float64) {
	row, du = make([]float64, n), make([]float64, n)
	allInf := rng.IntN(10) == 0
	for w := range row {
		switch k := rng.IntN(20); {
		case allInf || k < 3:
			row[w] = math.Inf(1)
		case k < 4:
			row[w] = math.NaN()
		case k < 5:
			row[w] = math.Copysign(0, -1)
		case k < 6:
			row[w] = 0
		default:
			row[w] = float64(rng.IntN(8))
		}
		du[w] = float64(rng.IntN(4))
		if rng.IntN(10) == 0 {
			du[w] = math.Inf(1)
		}
	}
	du[x] = 0
	return row, du
}

// TestMinLinkMatchesForwardScan holds minLink to its reference scan on
// random rows where ties, +Inf, NaN and signed zeros are common: the same
// minimum, bit for bit, and the same node. The random rows catch a scan
// that keeps the last minimum instead of the first (ties), or that lets a
// NaN or +Inf entry win.
func TestMinLinkMatchesForwardScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0x5ca9))
	var ties, none int
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.IntN(12)
		x := rng.IntN(n)
		row, du := randomScanRow(rng, n, x)
		size := []float64{0.5, 1, 2, 3}[rng.IntN(4)]
		best, w := minLink(du, size, row)
		wantBest, wantW := minLinkForward(du, size, row)
		if math.Float64bits(best) != math.Float64bits(wantBest) || w != wantW {
			t.Fatalf("trial %d: minLink = (%v, %d), forward scan (%v, %d) (row %v, du %v, size %v)",
				trial, best, w, wantBest, wantW, row, du, size)
		}
		if w < 0 {
			none++
		}
		for v, c := range row {
			if graph.NodeID(v) != w && !math.IsInf(best, 1) && size*du[v]+c == best {
				ties++
				break
			}
		}
	}
	t.Logf("%d scans with a tie at the minimum, %d with no candidate", ties, none)
	if ties == 0 || none == 0 {
		t.Fatal("vacuous run: no scan had a tie, or every scan had a candidate")
	}
}
