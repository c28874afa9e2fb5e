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
