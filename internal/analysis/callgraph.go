package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the static call graph the whole-program analyzers
// (hotpathprop, allocfree, lockorder) share.
//
// Construction and soundness:
//
//   - Nodes are function and method declarations with bodies, excluding
//     _test.go files. Function literals are not separate nodes: a FuncLit's
//     body belongs to the enclosing declaration, matching how the hotpath
//     rules treat closures (the closure runs on whatever path its maker
//     runs on).
//   - Edges come from statically resolvable call sites only: direct calls to
//     package-level functions, qualified pkg.Func calls, and method calls on
//     concrete (non-interface) receivers. Calls through interfaces, function
//     values, and method values produce NO edge — the analysis is
//     deliberately unsound there rather than wildly over-approximate, and
//     DESIGN.md §11 documents the caveat. The per-package hotpath analyzer
//     still flags closures on hot paths, which is what makes the dynamic
//     hole narrow in practice.
//   - Identity is by canonical string key, not *types.Func pointer: the
//     loader type-checks each package from source while its
//     imports resolve through a separate source-importer pass, so the same
//     function materializes as distinct objects on the two sides. FullName
//     (package-path-qualified, receiver included) is stable across both.
//   - Functions whose body is a single panic statement are "panic-only":
//     cold paths by definition (vmpi.panicBadRank exists precisely to hoist
//     panic formatting off the hot path), so reachability never traverses
//     an edge into one.

// funcNode is one declared function in the program.
type funcNode struct {
	key  string // canonical identity, see funcKey
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// callees lists statically resolved out-edges in source order, deduped.
	callees []callEdge
	// panicOnly marks cold panic-hoisting helpers; edges into them are
	// never traversed.
	panicOnly bool
}

// callEdge is one resolved call site.
type callEdge struct {
	key string    // callee funcKey
	pos token.Pos // call position in the caller
}

// callGraph indexes every declared function in the loaded program.
type callGraph struct {
	nodes map[string]*funcNode
	// order holds keys sorted by source position so every traversal of
	// "all nodes" is deterministic.
	order []string
}

// funcKey returns the canonical cross-package identity of a function:
// FullName is package-path-qualified for both plain functions
// ("mod/pkg.Fn") and methods ("(*mod/pkg.T).M").
func funcKey(fn *types.Func) string {
	return fn.FullName()
}

// buildCallGraph constructs the program call graph over all non-test files.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{nodes: map[string]*funcNode{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if isTestFile(p.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{
					key:       funcKey(fn),
					fn:        fn,
					decl:      fd,
					pkg:       p,
					panicOnly: isPanicOnly(p.Info, fd.Body),
				}
				node.callees = collectCallees(p.Info, fd.Body)
				if _, dup := g.nodes[node.key]; !dup {
					g.nodes[node.key] = node
					g.order = append(g.order, node.key)
				}
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.nodes[g.order[i]], g.nodes[g.order[j]]
		return a.decl.Pos() < b.decl.Pos()
	})
	return g
}

// collectCallees resolves every statically bindable call site in body,
// including call sites inside nested function literals (a closure's calls
// happen on the enclosing function's path).
func collectCallees(info *types.Info, body *ast.BlockStmt) []callEdge {
	var edges []callEdge
	seen := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil {
			return true
		}
		key := funcKey(fn)
		if !seen[key] {
			seen[key] = true
			edges = append(edges, callEdge{key: key, pos: call.Pos()})
		}
		return true
	})
	return edges
}

// staticCallee resolves call's target when it binds statically: a direct
// function call, a qualified pkg.Func call, or a method call on a concrete
// receiver. Interface-method calls, struct-field function values, and local
// function values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field holding a func value: dynamic
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return nil
			}
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil // dynamic dispatch: no static edge
			}
			return fn
		}
		// No selection entry: a package-qualified call (fmt.Sprintf).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPanicOnly reports whether body consists of a single panic(...) call —
// the panic-hoisting helper shape used to keep formatting off hot paths.
func isPanicOnly(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	es, ok := body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// reached records how the taint walk arrived at a function.
type reached struct {
	node *funcNode
	root *funcNode // the annotated root whose taint reached it first
}

// reachableFrom runs a breadth-first taint walk from the given roots and
// returns every non-root function reachable through traversable edges
// (edges into panic-only functions and into functions without bodies in the
// program are skipped), in deterministic first-reached order. When several
// roots reach the same function, the attribution goes to the root earliest
// in the deterministic root order.
func (g *callGraph) reachableFrom(roots []*funcNode) []reached {
	rootSet := map[string]bool{}
	for _, r := range roots {
		rootSet[r.key] = true
	}
	visited := map[string]bool{}
	var out []reached
	for _, root := range roots {
		queue := []*funcNode{root}
		seen := map[string]bool{root.key: true}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range cur.callees {
				callee := g.nodes[e.key]
				if callee == nil || callee.panicOnly || seen[e.key] {
					continue
				}
				seen[e.key] = true
				if !rootSet[e.key] && !visited[e.key] {
					visited[e.key] = true
					out = append(out, reached{node: callee, root: root})
				}
				queue = append(queue, callee)
			}
		}
	}
	return out
}

// annotatedRoots returns the nodes whose declaration carries the given
// //het: directive, in source order.
func (g *callGraph) annotatedRoots(directive string) []*funcNode {
	var roots []*funcNode
	for _, key := range g.order {
		n := g.nodes[key]
		if hasDirective(n.decl.Doc, directive) {
			roots = append(roots, n)
		}
	}
	return roots
}

// displayName renders a node for diagnostics: method receivers keep their
// type ("(*Evaluator).Tau"), plain functions their bare name, with the
// package name prefixed when the reader could be looking at another package.
func (n *funcNode) displayName() string {
	name := n.decl.Name.Name
	if n.decl.Recv != nil && len(n.decl.Recv.List) > 0 {
		if t := recvTypeName(n.decl.Recv.List[0].Type); t != "" {
			name = t + "." + name
		}
	}
	return name
}

// qualifiedFrom renders a node's display name as seen from pkg: same
// package → bare, other package → "pkgname.Name".
func (n *funcNode) qualifiedFrom(pkg *Package) string {
	name := n.displayName()
	if n.pkg != pkg && n.fn.Pkg() != nil {
		return n.fn.Pkg().Name() + "." + name
	}
	return name
}

func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		if inner := recvTypeName(t.X); inner != "" {
			return "(*" + inner + ")"
		}
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}
