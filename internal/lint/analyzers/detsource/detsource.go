// Package detsource forbids nondeterministic inputs — wall-clock
// reads, the global math/rand source, and environment lookups — inside
// the packages whose outputs must be bit-reproducible from their seeds:
// sim, plan, runner, workload, substrate, lp, and scenario. Those
// packages feed the golden fingerprints; a single time.Now or global
// rand draw in them silently breaks replay.
//
// Legitimate exceptions exist (the runner's progress/ETA lines, sim's
// wall-clock runtime columns) and are annotated with a
// `//olive:wallclock <why>` directive on the enclosing function or on
// the offending line — see internal/lint/directive.
// Deterministic constructors (rand.New, rand.NewPCG, rand.NewSource,
// ...) are always allowed; only the package-level draws that consume
// the ambient global source are not.
package detsource

import (
	"go/ast"
	"go/types"

	"github.com/olive-vne/olive/internal/lint/analysis"
	"github.com/olive-vne/olive/internal/lint/directive"
	"github.com/olive-vne/olive/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc: "forbids time.Now/global math-rand/env reads in the deterministic packages " +
		"(sim, plan, runner, workload, substrate, lp, scenario); annotate reviewed " +
		"exceptions with //olive:wallclock",
	Run: run,
}

// deterministic lists the packages (by import-path base) whose outputs
// must be pure functions of their seeds.
var deterministic = map[string]bool{
	"sim": true, "plan": true, "runner": true, "workload": true,
	"substrate": true, "lp": true, "scenario": true,
}

// wallclockFuncs are the time package's wall-clock and timer entry
// points. time.Duration arithmetic and formatting are fine.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Sleep": true,
}

// envFuncs are the os package's environment readers.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// randConstructors are the explicitly-seeded constructors; every other
// package-level math/rand[/v2] function draws from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewSource": true, "NewZipf": true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !deterministic[lintutil.PathBase(pass.Pkg.Path())] {
		return nil
	}
	dirs := directive.ParseFiles(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if isFunc && dirs.Func(fd, directive.WallClock) {
				continue // whole function reviewed and exempted
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, name := classify(pass.TypesInfo, call)
				if kind == "" {
					return true
				}
				if dirs.Line(call.Pos(), directive.WallClock) {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s (%s) in deterministic package %s: outputs must be pure functions of their seeds; thread a value in, or annotate a reviewed exception with //olive:wallclock",
					name, kind, lintutil.PathBase(pass.Pkg.Path()))
				return true
			})
		}
	}
	return nil
}

// classify returns the violation kind ("wall clock", "global rand",
// "environment read") and the offending call's name, or "" for benign
// calls.
func classify(info *types.Info, call *ast.CallExpr) (kind, name string) {
	fn := lintutil.CalleeFunc(info, call)
	if fn == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // methods (e.g. on an injected clock or *rand.Rand) are fine
	}
	switch lintutil.PkgPath(fn) {
	case "time":
		if wallclockFuncs[fn.Name()] {
			return "wall clock", "time." + fn.Name()
		}
	case "os":
		if envFuncs[fn.Name()] {
			return "environment read", "os." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return "global rand", "rand." + fn.Name()
		}
	}
	return "", ""
}
