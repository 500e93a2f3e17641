package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath enforces allocation discipline in functions annotated
// //het:hotpath — the static complement of the runtime allocation gates
// (the tier-1 testing.AllocsPerRun tests). Those functions sit on
// per-candidate and per-message paths: Evaluator.Tau scores millions of
// configurations per search, vmpi moves an envelope per MPI message, the
// serve cache hit path runs once per query. A single fmt call or escaping
// closure turns "0 allocs/op" into garbage-collector pressure that those
// tests only catch after the fact, and only on the inputs they exercise.
//
// Inside an annotated function the analyzer flags:
//
//   - any call into package fmt (Sprintf, Errorf, ... — all allocate);
//   - function literals (closure allocation; hoist or pass state explicitly);
//   - map literals and make(map...) (always heap-allocated);
//   - append to a slice with no visible 3-arg make preallocation;
//   - interface boxing of scalars: passing an int/float/bool/string to an
//     interface-typed parameter allocates to box the value (panic argument
//     excepted — panics are the cold path by definition).
//
// Deliberate exceptions carry //het:allow hotpath -- <reason>.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: `forbid allocation patterns in //het:hotpath functions

Functions annotated //het:hotpath must stay free of fmt calls, closures, map
literals, unpreallocated appends, and scalar-to-interface boxing; they are the
paths the zero-alloc benchmark gate protects at runtime.`,
	Run: runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "hotpath") {
				continue
			}
			c := &hotChecker{
				info:    pass.TypesInfo,
				where:   "//het:hotpath function " + fd.Name.Name,
				reportf: pass.Reportf,
			}
			c.check(fd.Body)
		}
	}
	return nil
}

// hotChecker applies the hotpath allocation rules to one function body.
// The where label names the function and, for the interprocedural analyzer
// (hotpathprop), the //het:hotpath root whose taint reached it — the rules
// themselves are shared verbatim between the direct and propagated cases.
type hotChecker struct {
	info    *types.Info
	where   string
	reportf func(pos token.Pos, format string, args ...any)
}

func (c *hotChecker) check(body *ast.BlockStmt) {
	prealloc := preallocated(c.info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.reportf(n.Pos(), "closure allocation in %s; hoist the function or pass state explicitly", c.where)
			return true // still check the closure's body: it runs on the hot path
		case *ast.CompositeLit:
			if t := c.info.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.reportf(n.Pos(), "map literal allocates in %s", c.where)
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, prealloc)
		}
		return true
	})
}

func (c *hotChecker) checkCall(call *ast.CallExpr, prealloc map[types.Object]bool) {
	info := c.info
	// Builtins: make(map...) and append without preallocation.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if t := info.TypeOf(call); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						c.reportf(call.Pos(), "make(map) allocates in %s", c.where)
					}
				}
			case "append":
				if obj := appendTarget(info, call); obj == nil || !prealloc[obj] {
					c.reportf(call.Pos(), "append without visible preallocation in %s; make the slice with explicit capacity in this function, or justify with //het:allow", c.where)
				}
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.reportf(call.Pos(), "call to fmt.%s allocates in %s; move formatting to the cold path", fn.Name(), c.where)
		return // boxing findings on the same call would be noise
	}
	reportBoxing(info, call, c.where, c.reportf)
}

// reportBoxing flags scalar-to-interface boxing at a call boundary: passing
// an int/float/bool/string argument to an interface-typed parameter
// allocates to box the value. Shared by the hotpath and allocfree rule sets.
func reportBoxing(info *types.Info, call *ast.CallExpr, where string, reportf func(pos token.Pos, format string, args ...any)) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped == 0 {
			reportf(arg.Pos(), "passing %s to interface parameter boxes the value in %s", at, where)
		}
	}
}

// preallocated collects local slice variables created via the 3-argument
// make (explicit capacity) anywhere in the function: appends to those are
// assumed amortized-free and allowed on hot paths.
func preallocated(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return
		}
		fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return
		}
		if b, ok := info.Uses[fid].(*types.Builtin); !ok || b.Name() != "make" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}
