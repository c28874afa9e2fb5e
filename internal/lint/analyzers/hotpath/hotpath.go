// Package hotpath structurally checks functions annotated
// `//olive:hotpath` for allocation-prone constructs. The repo's
// per-request serving path is allocation-budgeted (27 allocs/op,
// guarded by BenchmarkServeEmbedWithMetrics and friends); the bench
// guard catches a regression's magnitude after the fact, while this
// analyzer names the construct that caused it at lint time.
//
// Four constructs are flagged inside an annotated function's body:
//
//   - fmt calls: every fmt entry point allocates (and boxes its
//     arguments); hot paths format nothing.
//   - unsized append growth: append to a slice that starts nil or
//     empty-without-capacity in the same function reallocates
//     geometrically; pre-size it or reuse a buffer.
//   - interface boxing: passing or converting a non-pointer-shaped
//     value (struct, basic, slice, string, ...) into an interface
//     parameter heap-allocates the value. Pointer-shaped values (*T,
//     func, chan, map) box for free and are not flagged.
//   - closure capture: a func literal that captures enclosing
//     variables forces them (and itself) onto the heap each call.
//
// The checks are intentionally per-function and syntactic: annotate the
// frames that must stay clean (the annotation is also documentation),
// and keep helpers that are allowed to allocate — reconstruction,
// error paths — out of them.
package hotpath

import (
	"go/ast"
	"go/types"

	"github.com/olive-vne/olive/internal/lint/analysis"
	"github.com/olive-vne/olive/internal/lint/directive"
	"github.com/olive-vne/olive/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "checks //olive:hotpath-annotated functions for allocation-prone constructs: " +
		"fmt calls, unsized append growth, interface boxing of non-pointer values, " +
		"and capturing closures",
	Run: run,
}

func run(pass *analysis.Pass) error {
	dirs := directive.ParseFiles(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !dirs.Func(fd, directive.HotPath) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	unsized := unsizedSlices(info, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, fd, n, unsized)
		case *ast.FuncLit:
			checkClosure(pass, fd, n)
			return false // captures inside the literal are the literal's problem
		}
		return true
	})
}

// unsizedSlices collects the local variables declared as nil or
// capacity-zero slices: `var x []T`, `x := []T{}`, `x := make([]T, 0)`.
func unsizedSlices(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						out[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !zeroCapSliceExpr(info, rhs) {
					continue
				}
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// zeroCapSliceExpr reports whether e is an empty-composite or
// zero-capacity make of a slice type.
func zeroCapSliceExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		tv, ok := info.Types[e]
		if !ok {
			return false
		}
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return false
		}
		tv, ok := info.Types[e]
		if !ok {
			return false
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
			return false
		}
		capArg := e.Args[len(e.Args)-1] // cap when 3 args, len when 2
		v, isConst := lintutil.ConstInt(info, capArg)
		return isConst && v == 0
	}
	return false
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, unsized map[types.Object]bool) {
	info := pass.TypesInfo

	// fmt: allocates and boxes, full stop.
	if fn := lintutil.CalleeFunc(info, call); fn != nil && lintutil.PkgPath(fn) == "fmt" {
		pass.Reportf(call.Pos(), "hot path %s calls fmt.%s, which allocates; format outside the hot path", fd.Name.Name, fn.Name())
		return
	}

	// append to an unsized local slice.
	if isBuiltin(info, call, "append") && len(call.Args) > 1 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && unsized[obj] {
				pass.Reportf(call.Pos(),
					"hot path %s grows %s from zero capacity; pre-size the slice or reuse a buffer",
					fd.Name.Name, id.Name)
			}
		}
	}

	// Interface boxing of call arguments (and conversions to interface
	// types, which parse as calls).
	tv, isConv := info.Types[call.Fun]
	if isConv && tv.IsType() {
		if types.IsInterface(tv.Type) {
			if atv, ok := info.Types[call.Args[0]]; ok && boxes(atv.Type) {
				pass.Reportf(call.Pos(),
					"hot path %s converts %s to interface %s, which allocates",
					fd.Name.Name, atv.Type.String(), tv.Type.String())
			}
		}
		return
	}
	sig := signatureOf(info, call)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= np-1 && !call.Ellipsis.IsValid():
			param = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		if atv, ok := info.Types[arg]; ok && boxes(atv.Type) {
			pass.Reportf(arg.Pos(),
				"hot path %s boxes %s into interface parameter %s, which allocates",
				fd.Name.Name, atv.Type.String(), param.String())
		}
	}
}

// boxes reports whether storing a value of type t in an interface
// allocates: true for concrete non-pointer-shaped types.
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !lintutil.PointerShaped(t)
}

func checkClosure(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	info := pass.TypesInfo
	captured := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Captured iff declared in the enclosing function but outside
		// the literal.
		if obj.Pos() >= fd.Pos() && obj.Pos() < lit.Pos() && !captured[obj.Name()] {
			captured[obj.Name()] = true
			names = append(names, obj.Name())
		}
		return true
	})
	if len(names) > 0 {
		pass.Reportf(lit.Pos(),
			"hot path %s creates a closure capturing %v; captures force heap allocation each call",
			fd.Name.Name, names)
	}
}

func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
