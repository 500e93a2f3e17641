package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField enforces that a field accessed through sync/atomic anywhere
// in a package is never read or written plainly elsewhere in it — mixing
// the two is a data race the race detector only catches on the interleaving
// that happens to run. The motivating shapes are serve.Planner's counter
// block and parallel.SharedThreshold: a whole struct of atomics is only as
// safe as its least-careful access site.
//
// Two styles are covered:
//
//   - classic fields: if &x.f is ever passed to a sync/atomic function
//     (atomic.AddInt64(&x.f, 1)), every other access to that field must go
//     through sync/atomic too; a bare read `x.f` or write `x.f = 0` is
//     flagged. Taking the address outside an atomic call is also flagged —
//     laundering the pointer through a variable defeats the analysis, so it
//     is treated as a plain access.
//   - typed atomics (atomic.Int64, atomic.Pointer[T], ...): the field may
//     only appear as the receiver of a method call/value (x.f.Load()) or
//     under & (passing the atomic by pointer); a plain copy or assignment
//     of the atomic value bypasses the protocol and is flagged.
//
// Deliberate exceptions (e.g. a constructor writing before the value is
// shared) carry //het:allow atomicfield -- <reason>.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: `forbid plain access to fields used with sync/atomic

A field accessed via sync/atomic (either &f passed to atomic.* or a typed
atomic.Int64-style field) must be accessed atomically everywhere: plain
reads, writes, and copies race with the atomic sites. Suppress with
//het:allow atomicfield -- <reason>.`,
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) error {
	info := pass.TypesInfo

	// Pass 1: collect objects whose address flows into a sync/atomic call,
	// and remember those blessed identifier uses.
	atomicObjs := map[types.Object]bool{}
	blessed := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on typed atomics are style two
			}
			for _, arg := range call.Args {
				ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				if id := addressedIdent(ue.X); id != nil {
					if obj := info.Uses[id]; obj != nil {
						atomicObjs[obj] = true
						blessed[id] = true
					}
				}
			}
			return true
		})
	}

	// Pass 2: flag every other use of those objects, and every non-method,
	// non-address use of a typed atomic field.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || !atomicObjs[obj] || blessed[n] {
					return
				}
				pass.Reportf(n.Pos(), "field %s is accessed via sync/atomic elsewhere in this package; this plain access races with the atomic sites — use atomic loads/stores here too", obj.Name())
			case *ast.SelectorExpr:
				sel, ok := info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return
				}
				// Exactly a value of a sync/atomic named type, also when
				// declared through an alias: a field of type *atomic.Int64
				// is a plain pointer and copies safely.
				named, ok := types.Unalias(sel.Obj().Type()).(*types.Named)
				if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
					return
				}
				if typedAtomicUseOK(info, n, stack) {
					return
				}
				pass.Reportf(n.Pos(), "field %s has atomic type %s and must be used through its methods; a plain copy or assignment bypasses the atomic protocol", sel.Obj().Name(), named.Obj().Name())
			}
		})
	}
	return nil
}

// addressedIdent returns the identifier naming the addressed variable or
// field in &x / &x.f / &x.y.f, nil for anything more exotic (index
// expressions, calls).
func addressedIdent(expr ast.Expr) *ast.Ident {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// typedAtomicUseOK reports whether a typed-atomic field selection appears in
// one of the two sanctioned positions: receiver of a method selection
// (x.f.Load(), or a method value), or operand of unary & (passing the
// atomic by pointer).
func typedAtomicUseOK(info *types.Info, n *ast.SelectorExpr, stack []ast.Node) bool {
	// Nearest non-paren ancestor.
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[p]; ok && sel.Kind() == types.MethodVal {
				return true
			}
			return false
		case *ast.UnaryExpr:
			return p.Op == token.AND
		default:
			return false
		}
	}
	return false
}

// walkWithStack visits every node with the stack of its ancestors
// (outermost first, the node itself excluded).
func walkWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
