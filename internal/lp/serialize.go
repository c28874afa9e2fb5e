package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Fixture serialization: a line-oriented text format that round-trips
// problems exactly (floats are stored as IEEE-754 bit patterns, with a
// human-readable decimal rendering alongside as a comment). It exists so
// that LPs which exposed solver bugs — like the Random100@1.4 seed-4
// master that triggered the singular-basis failure — can be committed
// under testdata/ and replayed as regression tests.
//
//	lp 1
//	rows <m>
//	row <LE|EQ|GE> <rhs-bits>
//	vars <n>
//	var <cost-bits> <lo-bits> <up-bits> <nnz> (<row> <coef-bits>)...
//
// Bit patterns are hexadecimal math.Float64bits values.

// Dump writes the problem in the fixture format.
func (p *Problem) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "lp 1")
	fmt.Fprintf(bw, "rows %d\n", len(p.rhs))
	for i, sense := range p.rowSense {
		fmt.Fprintf(bw, "row %s %016x # %g\n", senseName(sense), math.Float64bits(p.rhs[i]), p.rhs[i])
	}
	fmt.Fprintf(bw, "vars %d\n", p.numVars)
	for j := 0; j < p.numVars; j++ {
		fmt.Fprintf(bw, "var %016x %016x %016x %d", math.Float64bits(p.cost[j]),
			math.Float64bits(p.lo[j]), math.Float64bits(p.up[j]), len(p.cols[j]))
		for _, e := range p.cols[j] {
			fmt.Fprintf(bw, " %d %016x", e.Row, math.Float64bits(e.Coef))
		}
		fmt.Fprintf(bw, " # c=%g [%g,%g]\n", p.cost[j], p.lo[j], p.up[j])
	}
	return bw.Flush()
}

func senseName(s Sense) string {
	switch s {
	case LE:
		return "LE"
	case EQ:
		return "EQ"
	case GE:
		return "GE"
	}
	return fmt.Sprintf("sense(%d)", int(s))
}

// Load reads a problem written by Dump.
func Load(r io.Reader) (*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	next := func() ([]string, error) {
		for sc.Scan() {
			line++
			text := sc.Text()
			if i := strings.IndexByte(text, '#'); i >= 0 {
				text = text[:i]
			}
			f := strings.Fields(text)
			if len(f) > 0 {
				return f, nil
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("lp: fixture truncated at line %d", line)
	}
	bits := func(s string) (float64, error) {
		u, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return 0, fmt.Errorf("lp: fixture line %d: bad float bits %q", line, s)
		}
		return math.Float64frombits(u), nil
	}

	f, err := next()
	if err != nil {
		return nil, err
	}
	if len(f) != 2 || f[0] != "lp" || f[1] != "1" {
		return nil, fmt.Errorf("lp: fixture line %d: want header \"lp 1\", got %q", line, strings.Join(f, " "))
	}
	if f, err = next(); err != nil {
		return nil, err
	}
	if len(f) != 2 || f[0] != "rows" {
		return nil, fmt.Errorf("lp: fixture line %d: want \"rows <m>\"", line)
	}
	m, err := strconv.Atoi(f[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("lp: fixture line %d: bad row count %q", line, f[1])
	}
	p := NewProblem()
	for i := 0; i < m; i++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) != 3 || f[0] != "row" {
			return nil, fmt.Errorf("lp: fixture line %d: want \"row <sense> <rhs>\"", line)
		}
		var sense Sense
		switch f[1] {
		case "LE":
			sense = LE
		case "EQ":
			sense = EQ
		case "GE":
			sense = GE
		default:
			return nil, fmt.Errorf("lp: fixture line %d: unknown sense %q", line, f[1])
		}
		rhs, err := bits(f[2])
		if err != nil {
			return nil, err
		}
		if !finite(rhs) {
			return nil, fmt.Errorf("lp: fixture line %d: non-finite rhs %g", line, rhs)
		}
		p.AddRow(sense, rhs)
	}
	if f, err = next(); err != nil {
		return nil, err
	}
	if len(f) != 2 || f[0] != "vars" {
		return nil, fmt.Errorf("lp: fixture line %d: want \"vars <n>\"", line)
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("lp: fixture line %d: bad var count %q", line, f[1])
	}
	for j := 0; j < n; j++ {
		if f, err = next(); err != nil {
			return nil, err
		}
		if len(f) < 5 || f[0] != "var" {
			return nil, fmt.Errorf("lp: fixture line %d: want \"var <cost> <lo> <up> <nnz> ...\"", line)
		}
		cost, err := bits(f[1])
		if err != nil {
			return nil, err
		}
		lo, err := bits(f[2])
		if err != nil {
			return nil, err
		}
		up, err := bits(f[3])
		if err != nil {
			return nil, err
		}
		nnz, err := strconv.Atoi(f[4])
		if err != nil || nnz < 0 || len(f) != 5+2*nnz {
			return nil, fmt.Errorf("lp: fixture line %d: bad entry count", line)
		}
		entries := make([]Entry, 0, nnz)
		for k := 0; k < nnz; k++ {
			row, err := strconv.Atoi(f[5+2*k])
			if err != nil {
				return nil, fmt.Errorf("lp: fixture line %d: bad row index %q", line, f[5+2*k])
			}
			coef, err := bits(f[6+2*k])
			if err != nil {
				return nil, err
			}
			entries = append(entries, Entry{Row: row, Coef: coef})
		}
		if _, err := p.AddVar(cost, lo, up, entries); err != nil {
			return nil, fmt.Errorf("lp: fixture line %d: %w", line, err)
		}
	}
	return p, nil
}
