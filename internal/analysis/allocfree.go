package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree statically certifies that //het:allocfree functions — the kernel
// paths the runtime 0-alloc benchmark gate tracks dynamically (the search
// walker's walk/tailRun/leafRun, which Search and SearchReuse both run;
// Evaluator.Tau/classTau; the vmpi envelope path;
// QuantileReservoir.Add) — contain no allocation site along
// any statically reachable path. Where the hotpath rules forbid a curated
// list of expensive patterns, allocfree is stricter: every construct the
// compiler may lower to a heap allocation is banned.
//
// Flagged in the annotated function and everything reachable from it:
//
//   - make and new (any type: slices, maps, channels, pointers);
//   - composite literals of slice or map type, and address-taken composite
//     literals (&T{} escapes); plain struct and array values are fine;
//   - append, unless the call sits under an `if len(x) < cap(x)` guard for
//     the same slice — the escape-lite whitelist proving the buffer is
//     reused, never grown (QuantileReservoir.Add's reservoir shape);
//   - function literals (closure allocation);
//   - calls into package fmt, and scalar-to-interface boxing at call
//     boundaries (panic arguments excepted: panics are the cold path);
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions;
//   - map index assignment (may trigger bucket growth).
//
// Calls whose bodies lie outside the loaded program (standard library,
// excluding fmt) are not traversed — sync.Pool.Get, math.*, and atomic
// operations are the intended uses, and DESIGN.md §16 records the caveat.
// Edges into panic-only helpers are cold and skipped. Deliberate exceptions
// carry //het:allow allocfree -- <reason>.
var AllocFree = &ProgramAnalyzer{
	Name: "allocfree",
	Doc: `certify //het:allocfree functions allocate nothing, transitively

Functions annotated //het:allocfree must contain no allocation site — no
make/new, no slice/map/escaping literals, no growing append, no closures,
no fmt, no boxing, no string building — along any statically reachable call
path. The escape-lite whitelist admits appends guarded by len(x) < cap(x)
(reused buffers). Suppress with //het:allow allocfree -- <reason>.`,
	Run: runAllocFree,
}

func runAllocFree(pass *ProgramPass) error {
	g := buildCallGraph(pass.Pkgs)
	roots := g.annotatedRoots("allocfree")
	for _, r := range roots {
		c := &allocChecker{
			info:    r.pkg.Info,
			where:   "//het:allocfree function " + r.displayName(),
			reportf: pass.Reportf,
		}
		c.check(r.decl.Body)
	}
	for _, r := range g.reachableFrom(roots) {
		c := &allocChecker{
			info: r.node.pkg.Info,
			where: "function " + r.node.displayName() +
				", reachable from //het:allocfree root " + r.root.qualifiedFrom(r.node.pkg),
			reportf: pass.Reportf,
		}
		c.check(r.node.decl.Body)
	}
	return nil
}

// allocChecker applies the allocfree rules to one function body.
type allocChecker struct {
	info    *types.Info
	where   string
	reportf func(pos token.Pos, format string, args ...any)
}

func (c *allocChecker) check(body *ast.BlockStmt) {
	guarded := guardedAppends(c.info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.reportf(n.Pos(), "closure allocation in %s; hoist the function or pass state explicitly", c.where)
			return true // the closure body still runs here: keep checking it
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if t := c.info.TypeOf(lit); t != nil {
						switch t.Underlying().(type) {
						case *types.Struct, *types.Array:
							c.reportf(n.Pos(), "address-taken composite literal escapes to the heap in %s", c.where)
						}
					}
				}
			}
		case *ast.CompositeLit:
			if t := c.info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					c.reportf(n.Pos(), "composite literal allocates in %s", c.where)
				}
			}
		case *ast.BinaryExpr:
			c.checkConcat(n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := c.info.TypeOf(ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							c.reportf(lhs.Pos(), "map assignment may allocate a bucket in %s", c.where)
						}
					}
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, guarded)
		}
		return true
	})
}

func (c *allocChecker) checkCall(call *ast.CallExpr, guarded map[*ast.CallExpr]bool) {
	info := c.info
	// Conversions: string <-> []byte/[]rune copy their contents.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if stringByteConversion(dst, src) {
			c.reportf(call.Pos(), "conversion between string and byte/rune slice copies its contents in %s", c.where)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.reportf(call.Pos(), "make allocates in %s", c.where)
			case "new":
				c.reportf(call.Pos(), "new allocates in %s", c.where)
			case "append":
				if !guarded[call] {
					c.reportf(call.Pos(), "append may grow its backing array in %s; guard with `if len(x) < cap(x)` to prove the buffer is reused, or justify with //het:allow", c.where)
				}
			}
			return // panic arguments are cold-path: no boxing check on builtins
		}
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.reportf(call.Pos(), "call to fmt.%s allocates in %s; move formatting to the cold path", fn.Name(), c.where)
		return
	}
	reportBoxing(info, call, c.where, c.reportf)
}

// checkConcat flags non-constant string concatenation (allocates the result).
func (c *allocChecker) checkConcat(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	tv, ok := c.info.Types[n]
	if !ok || tv.Value != nil { // constant-folded at compile time
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		c.reportf(n.Pos(), "string concatenation allocates in %s", c.where)
	}
}

// stringByteConversion reports whether a conversion between dst and src
// crosses the string/[]byte (or string/[]rune) boundary, which copies.
func stringByteConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// guardedAppends implements the escape-lite whitelist: an append whose call
// sits inside the then-branch of `if len(x) < cap(x)` (for syntactically the
// same x as the append target) provably reuses existing capacity and never
// grows. This is the reservoir-sampling shape (QuantileReservoir.Add).
func guardedAppends(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		target := lenCapGuard(info, ifs.Cond)
		if target == "" {
			return true
		}
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return true
			}
			if types.ExprString(ast.Unparen(call.Args[0])) == target {
				out[call] = true
			}
			return true
		})
		return true
	})
	return out
}

// lenCapGuard matches the condition `len(x) < cap(x)` and returns x's
// expression string, or "" when the condition has another shape.
func lenCapGuard(info *types.Info, cond ast.Expr) string {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.LSS {
		return ""
	}
	lenArg := builtinArg(info, be.X, "len")
	capArg := builtinArg(info, be.Y, "cap")
	if lenArg == nil || capArg == nil {
		return ""
	}
	ls, cs := types.ExprString(lenArg), types.ExprString(capArg)
	if ls != cs {
		return ""
	}
	return ls
}

// builtinArg returns the single argument of a call to the named builtin,
// or nil when expr is anything else.
func builtinArg(info *types.Info, expr ast.Expr, name string) ast.Expr {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != name {
		return nil
	}
	return ast.Unparen(call.Args[0])
}
