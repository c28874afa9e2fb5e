package embedder

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
)

// minLinkForward is the link scan minLink replaced, kept as its reference:
// every child node w in index order, skipping +Inf entries, keeping the
// first strict minimum of size·dist + child cost. It examines all n.
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

// refOrder is a row's order sorted from scratch: the nodes of its finite
// entries (+Inf and NaN left out), stably sorted by cost, so that equal
// costs (-0 and +0 among them) keep node order.
func refOrder(row []float64) []graph.NodeID {
	var ord []graph.NodeID
	for w, c := range row {
		if !math.IsNaN(c) && !math.IsInf(c, 1) {
			ord = append(ord, graph.NodeID(w))
		}
	}
	slices.SortStableFunc(ord, func(a, b graph.NodeID) int { return cmp.Compare(row[a], row[b]) })
	return ord
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

// TestMinLinkMatchesForwardScan holds the early-exit scan to the forward
// scan it replaced, on random rows where ties, +Inf, NaN and signed zeros
// are common: the same minimum, bit for bit, and the same node, with the
// row's order built by rowOrder and equal to a from-scratch sort. The
// order is then re-derived (deriveOrder) after a random set of entries
// takes new values, and must equal a from-scratch sort of the new row, and
// scanning it must again match the forward scan.
//
// The random rows catch each of these mutations: stopping on cw >= best
// (an entry at the best cost can still tie through a zero distance),
// dropping the tie rule (a later entry in (cost, node) order can reach the
// same sum at a lower node), and keeping NaN entries in the order.
func TestMinLinkMatchesForwardScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0x5ca9))
	o := new(Oracle)
	var rows substrate.Arena
	var scans, examined, ties, early int
	check := func(where string, row, du []float64, size float64, ord []graph.NodeID) {
		t.Helper()
		if want := refOrder(row); !slices.Equal(ord, want) {
			t.Fatalf("%s: order %v, from scratch %v (row %v)", where, ord, want, row)
		}
		best, w, k := minLink(du, size, row, ord)
		wantBest, wantW := minLinkForward(du, size, row)
		if math.Float64bits(best) != math.Float64bits(wantBest) || w != wantW {
			t.Fatalf("%s: minLink = (%v, %d), forward scan (%v, %d) (row %v, du %v, size %v, order %v)",
				where, best, w, wantBest, wantW, row, du, size, ord)
		}
		if k > len(ord) {
			t.Fatalf("%s: examined %d of %d entries", where, k, len(ord))
		}
		scans++
		examined += k
		if k < len(ord) {
			early++
		}
		for v, c := range row {
			if graph.NodeID(v) != w && !math.IsInf(best, 1) && size*du[v]+c == best {
				ties++
				break
			}
		}
	}
	for trial := 0; trial < 4000; trial++ {
		rows.Reset()
		n := 1 + rng.IntN(12)
		x := rng.IntN(n)
		row, du := randomScanRow(rng, n, x)
		size := []float64{0.5, 1, 2, 3}[rng.IntN(4)]
		ord := o.rowOrder(&rows, row)
		check(fmt.Sprintf("trial %d", trial), row, du, size, ord)

		// Change a random set of entries, listed in node order as
		// SolveBan lists them, and re-derive the order from the old one.
		newRow, _ := randomScanRow(rng, n, x)
		mark := make([]bool, n)
		var changed []graph.NodeID
		for w := range row {
			if rng.IntN(3) == 0 {
				row[w] = newRow[w]
				mark[w] = true
				changed = append(changed, graph.NodeID(w))
			}
		}
		ord = o.deriveOrder(&rows, ord, row, changed, mark)
		check(fmt.Sprintf("trial %d, changed %v", trial, changed), row, du, size, ord)
	}
	t.Logf("%d scans examined %d entries (%d stopped early), %d with a tie at the minimum", scans, examined, early, ties)
	if early == 0 || ties == 0 {
		t.Fatal("vacuous run: no scan stopped early, or none had a tie")
	}
}
