package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map whose iteration feeds ordered output:
// writes to an io.Writer or string builder, fmt print calls, channel sends,
// or accumulation into a slice that outlives the loop. Go randomizes map
// iteration order, so any of these makes the output differ run to run — the
// class of bug PR 1 fixed three times by hand (FitCompositionScale,
// GridTable.Render, the adjustment printouts).
//
// The one blessed pattern is collect-then-sort: a loop that only appends the
// keys (or values) to a slice is allowed when a sort.* or slices.Sort* call
// over that slice follows in the same block before any other use. Anything
// else needs an explicit //het:allow maporder -- <reason>.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: `flag map iteration that feeds ordered output without sorting

A range over a map may print, write, send, or append into an outer slice only
if the accumulated slice is sorted immediately after the loop. Map order is
randomized per run; everything observable must be deterministic.`,
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkMapRanges(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkMapRanges finds every map-range loop in the function body (however
// deeply nested, closures included) and hands each one the statements that
// follow it in its enclosing block, which the collect-then-sort allowance
// inspects.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.TypeOf(rng.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				checkMapRange(pass, rng, stmtsAfter(parents, rng))
			}
		}
		return true
	})
}

// stmtsAfter returns the statements that follow stmt in its innermost
// enclosing statement list (block body or switch/select case body).
func stmtsAfter(parents map[ast.Node]ast.Node, stmt ast.Stmt) []ast.Stmt {
	var child ast.Node = stmt
	for parent := parents[child]; parent != nil; child, parent = parent, parents[parent] {
		var list []ast.Stmt
		switch p := parent.(type) {
		case *ast.BlockStmt:
			list = p.List
		case *ast.CaseClause:
			list = p.Body
		case *ast.CommClause:
			list = p.Body
		default:
			continue
		}
		for i, s := range list {
			if s == child {
				return list[i+1:]
			}
		}
		return nil
	}
	return nil
}

// checkMapRange inspects one map-range loop. after holds the statements that
// follow the loop in its enclosing block, used by the sort allowance.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	var sinks []Diagnostic         // ordered sinks other than slice accumulation
	var accumulated []types.Object // outer slices appended to inside the loop

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Descend into nested loops over slices (their sinks still run
			// once per outer map key), but let a nested map range report on
			// its own instead of double-counting its body here.
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
			return true
		case *ast.SendStmt:
			sinks = append(sinks, Diagnostic{Pos: n.Pos(), Message: "channel send inside map iteration publishes values in nondeterministic order"})
		case *ast.CallExpr:
			if name, ok := writerSink(pass.TypesInfo, n); ok {
				sinks = append(sinks, Diagnostic{Pos: n.Pos(), Message: "call to " + name + " inside map iteration emits output in nondeterministic order"})
				return true
			}
			if obj := appendTarget(pass.TypesInfo, n); obj != nil {
				if declaredOutside(obj, rng) {
					accumulated = append(accumulated, obj)
				}
			}
		}
		return true
	})

	for _, d := range sinks {
		pass.Reportf(d.Pos, "%s; sort the keys first (the map is ranged at %s)",
			d.Message, pass.Fset.Position(rng.Pos()))
	}
	if len(sinks) > 0 {
		return // accumulation findings would be noise on top
	}
	for _, obj := range accumulated {
		if !sortedAfter(pass.TypesInfo, obj, after) {
			pass.Reportf(rng.Pos(), "map iteration accumulates into %q, which is not sorted before use; map order is random — sort %q after the loop or collect sorted keys first", obj.Name(), obj.Name())
		}
	}
}

// writerSink reports whether a call writes to an ordered output stream:
// fmt's Print/Fprint families, any Write* method (io.Writer, strings.Builder,
// bytes.Buffer, bufio.Writer, ...), or Print* methods on loggers and alike.
func writerSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		return "fmt." + name, true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Print") {
		return recvName(sig) + "." + name, true
	}
	return "", false
}

func recvName(sig *types.Signature) string {
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// calleeFunc resolves the called function or method, nil for builtins,
// conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// appendTarget returns the object a builtin append call grows, when the
// slice expression is a plain identifier (x = append(x, ...)); nil otherwise.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[arg]
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement (so appends to it survive the loop).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// sortedAfter reports whether, among the statements following the loop, obj
// is passed to a sort.* or slices.Sort* call before any other use of it.
// Seeing the sort first is what makes collect-then-sort deterministic; any
// other use first (printing it, returning it) observes random order.
func sortedAfter(info *types.Info, obj types.Object, after []ast.Stmt) bool {
	for _, s := range after {
		verdict := 0 // 0: obj untouched, 1: sorted, -1: other use
		ast.Inspect(s, func(n ast.Node) bool {
			if verdict != 0 {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if ok && isSortCall(info, call) && usesObject(info, call, obj) {
				verdict = 1
				return false
			}
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				verdict = -1
				return false
			}
			return true
		})
		switch verdict {
		case 1:
			return true
		case -1:
			return false
		}
	}
	return false
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

func usesObject(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
