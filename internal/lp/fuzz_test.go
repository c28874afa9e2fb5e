package lp

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"testing"
)

// FuzzLPLoad fuzzes the fixture parser. Two properties:
//
//   - Load never panics, whatever the bytes (malformed fixtures must
//     come back as errors — a committed regression LP is replayed by
//     tests and CI, and a corrupt one must fail loudly, not crash).
//   - Dump is a canonical form: any problem Load accepts re-dumps to a
//     byte sequence that reloads to the identical dump (a fixed point),
//     so fixtures round-trip exactly — the property the bit-pattern
//     float encoding exists to provide.
func FuzzLPLoad(f *testing.F) {
	// Seed: a canonical dump exercising all senses, bounds and
	// multi-entry columns.
	p := NewProblem()
	p.AddRow(LE, 14)
	p.AddRow(EQ, 3)
	p.AddRow(GE, -0.5)
	if _, err := p.AddVar(2.5, 0, 10, []Entry{{Row: 0, Coef: 1}, {Row: 1, Coef: -2}}); err != nil {
		f.Fatal(err)
	}
	if _, err := p.AddVar(1e8, 0, 1, []Entry{{Row: 2, Coef: 0.5}}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Dump(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Seed: the committed singular-basis regression fixture.
	if raw, err := os.ReadFile("../../testdata/lp/random100-u140-seed4.lp.gz"); err == nil {
		if zr, err := gzip.NewReader(bytes.NewReader(raw)); err == nil {
			var fx bytes.Buffer
			if _, err := fx.ReadFrom(zr); err == nil {
				f.Add(fx.Bytes())
			}
		}
	}

	// Seeds: malformed shapes the parser must reject gracefully.
	for _, s := range []string{
		"",
		"lp 1\nrows 0\nvars 0\n",
		"lp 2\n",
		"lp 1\nrows 1\nrow LE zzzz\n",
		"lp 1\nrows -1\n",
		"lp 1\nrows 1\nrow XX 0000000000000000\n",
		"lp 1\nrows 0\nvars 1\nvar 0 0 0 3 0 0\n",
		"lp 1\nrows 1\nrow GE 4010000000000000\nvars 1\nvar 0 0 3ff0000000000000 1 99 4000000000000000\n",
		"lp 1\nrows 1\nrow LE 0000000000000000 # comment\n\nvars 0\n",
		"lp 1\nrows 1\nrow LE 7ff8000000000000\nvars 0\n",                                                               // NaN rhs
		"lp 1\nrows 1\nrow LE 0000000000000000\nvars 1\nvar 7ff8000000000000 0 3ff0000000000000 1 0 7ff0000000000000\n", // NaN cost, +Inf coef
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is the bug
		}
		// Whatever Load accepts holds only finite numbers (up = +Inf
		// aside): a NaN would come back from Solve as an "optimal" NaN.
		for i, v := range p.rhs {
			if !finite(v) {
				t.Fatalf("Load accepted non-finite rhs %g in row %d", v, i)
			}
		}
		for j := range p.cols {
			if !finite(p.cost[j]) || !finite(p.lo[j]) || math.IsNaN(p.up[j]) || math.IsInf(p.up[j], -1) {
				t.Fatalf("Load accepted var %d with cost %g bounds [%g,%g]", j, p.cost[j], p.lo[j], p.up[j])
			}
			for _, e := range p.cols[j] {
				if !finite(e.Coef) {
					t.Fatalf("Load accepted non-finite coefficient %g in var %d", e.Coef, j)
				}
			}
		}
		var d1 bytes.Buffer
		if err := p.Dump(&d1); err != nil {
			t.Fatalf("Dump after successful Load: %v", err)
		}
		p2, err := Load(bytes.NewReader(d1.Bytes()))
		if err != nil {
			t.Fatalf("reloading canonical dump: %v\ndump:\n%s", err, d1.Bytes())
		}
		var d2 bytes.Buffer
		if err := p2.Dump(&d2); err != nil {
			t.Fatalf("second Dump: %v", err)
		}
		if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
			t.Fatalf("Dump/Load is not a fixed point:\n--- first dump\n%s\n--- second dump\n%s",
				d1.Bytes(), d2.Bytes())
		}
	})
}

// decodeLP decodes data into a small LP and a right-hand-side shift per
// row. The LP has 1–8 rows of any sense and 1–12 variables, each with
// bounds [0, +Inf), [lo, +Inf), [lo, lo+w] or fixed at lo; costs,
// coefficients, bounds and right-hand sides lie on coarse grids, so
// degenerate ties and bound flips are common. Missing bytes read as 0.
func decodeLP(data []byte) (p *Problem, shift []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	coefs := []float64{-3, -2, -1, -0.5, 0.5, 1, 2, 3}
	p = NewProblem()
	m := 1 + next()%8
	n := 1 + next()%12
	for i := 0; i < m; i++ {
		b := next()
		p.AddRow([]Sense{LE, EQ, GE}[b%3], float64(b/3%9)-2)
	}
	for j := 0; j < n; j++ {
		kind := next()
		lo, up := float64(next()%5)-2, math.Inf(1)
		switch kind % 4 {
		case 0:
			lo = 0
		case 2:
			up = lo + float64(1+kind/4%4)
		case 3:
			up = lo
		}
		cost := float64(next()%9) - 4
		var entries []Entry
		rows := next()
		for i := 0; i < m; i++ {
			if rows>>i&1 == 1 {
				entries = append(entries, Entry{Row: i, Coef: coefs[next()%len(coefs)]})
			}
		}
		p.MustAddVar(cost, lo, up, entries)
	}
	shift = make([]float64, m)
	for i := range shift {
		shift[i] = float64(next()%5-2) / 2
	}
	return p, shift
}

// FuzzSolveAgainstReference solves the small LPs of decodeLP with Solve,
// then shifts their right-hand sides and solves again with SolveFrom
// from the first solution's basis. Each result must match refSolve's
// status, and its objective to 1e-6 relative; each Optimal one must pass
// checkKKT.
func FuzzSolveAgainstReference(f *testing.F) {
	// Seeds: a bound flip (one boxed variable whose cost drives it to its
	// upper bound before any row binds), an infeasible pair of rows, an
	// unbounded ray, and a mix with fixed variables and all three senses.
	f.Add([]byte{0, 0, 24, 2, 2, 0, 1, 5, 2})
	f.Add([]byte{1, 0, 0, 5, 0, 0, 4, 3, 5, 5})
	f.Add([]byte{0, 0, 6, 0, 2, 0, 1, 0, 2})
	f.Add([]byte{2, 4, 8, 24, 10, 3, 3, 8, 7, 5, 5, 4, 0, 0, 2, 3, 6, 5, 6, 1, 0, 5, 5, 3, 1, 2, 7, 4, 7, 3, 4, 4, 0, 3, 1, 4})
	check := func(t *testing.T, what string, p *Problem, sol *Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st, obj := refSolve(p)
		if sol.Status != st {
			t.Fatalf("%s: status %v, reference says %v", what, sol.Status, st)
		}
		if st != Optimal {
			return
		}
		if d := math.Abs(sol.Obj - obj); d > 1e-6*(1+math.Abs(obj)) {
			t.Fatalf("%s: objective %.12g, reference %.12g", what, sol.Obj, obj)
		}
		checkKKT(t, p, sol, p.rowSense, p.rhs, p.lo, p.up, p.cost, p.cols)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, shift := decodeLP(data)
		sol, err := p.Solve()
		check(t, "Solve", p, sol, err)
		for i, d := range shift {
			p.rhs[i] += d
		}
		again, err := p.SolveFrom(sol.Basis())
		check(t, "SolveFrom after a right-hand-side shift", p, again, err)
	})
}
