package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder derives the program's lock-acquisition order from observed
// lock→lock edges and reports every edge that participates in a cycle: two
// code paths taking the same pair of mutexes in opposite orders is the
// classic recipe for deadlock between serve's swap/cache/batcher locks and
// the fleet router's connection pool.
//
// The analysis is a per-function linear scan tracking the set of locks held
// (x.Lock()/x.RLock() pushes, x.Unlock()/x.RUnlock() pops, deferred unlocks
// hold to function end), combined with transitive may-acquire summaries
// over the static call graph: calling f() while holding L adds an edge
// L→M for every lock M that f may take, directly or transitively.
//
// Locks are identified at type granularity — a field mutex keys as
// "pkg.Type.field", a package-level mutex as "pkg.var" — so two instances
// of the same struct are indistinguishable and same-key self-edges are
// skipped rather than reported (instance-level aliasing is out of reach
// statically). Branches fork the held-set and re-join; goroutine and
// deferred closure bodies scan as fresh scopes (a new goroutine holds
// nothing). Cycles are found by SCC over the edge graph; every edge inside
// a multi-node SCC is a diagnostic at the edge's first observed call site.
var LockOrder = &ProgramAnalyzer{
	Name: "lockorder",
	Doc: `require a consistent global mutex acquisition order

Observed lock→lock edges (including through static calls) must form no
cycle: if one path locks A then B, no path may lock B then A. Each edge in
a cycle is reported where it is first observed. Suppress a deliberate
exception with //het:allow lockorder -- <reason>.`,
	Run: runLockOrder,
}

func runLockOrder(pass *ProgramPass) error {
	g := buildCallGraph(pass.Pkgs)

	// Transitive may-acquire summaries by fixpoint over the call graph.
	may := map[string]map[string]bool{}
	for _, key := range g.order {
		n := g.nodes[key]
		acq := map[string]bool{}
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if k, op := lockCall(n, call); op == lockAcquire && k != "" {
					acq[k] = true
				}
			}
			return true
		})
		may[key] = acq
	}
	for changed := true; changed; {
		changed = false
		for _, key := range g.order {
			n := g.nodes[key]
			for _, e := range n.callees {
				callee := g.nodes[e.key]
				if callee == nil || callee.panicOnly {
					continue
				}
				for k := range may[e.key] {
					if !may[key][k] {
						may[key][k] = true
						changed = true
					}
				}
			}
		}
	}

	// Scan every function, collecting first-observed lock→lock edges.
	edges := map[[2]string]token.Pos{}
	emit := func(from, to string, pos token.Pos) {
		if from == to {
			return // same type-level key: instance aliasing is unknowable here
		}
		if _, seen := edges[[2]string{from, to}]; !seen {
			edges[[2]string{from, to}] = pos
		}
	}
	for _, key := range g.order {
		n := g.nodes[key]
		s := &lockScanner{g: g, node: n, may: may, emit: emit}
		held := []string{}
		s.scanStmts(n.decl.Body.List, &held)
		// Closure bodies scan as fresh scopes; they may queue further
		// closures of their own, so index (not range) over the queue.
		for i := 0; i < len(s.deferred); i++ {
			fresh := []string{}
			s.scanStmts(s.deferred[i].Body.List, &fresh)
		}
	}

	// SCC over the edge graph; every edge inside a multi-node SCC is part
	// of at least one cycle.
	cyclic := sccMembers(edges)
	type finding struct {
		pos      token.Pos
		from, to string
		cycle    string
	}
	var findings []finding
	for e, pos := range edges {
		comp, ok := cyclic[e[0]]
		if !ok || comp != cyclic[e[1]] {
			continue
		}
		var members []string
		for k, c := range cyclic {
			if c == comp {
				members = append(members, k)
			}
		}
		sort.Strings(members)
		findings = append(findings, finding{pos: pos, from: e[0], to: e[1], cycle: strings.Join(members, ", ")})
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].to < findings[j].to
	})
	for _, f := range findings {
		pass.Reportf(f.pos, "inconsistent lock order: %s acquired while holding %s, but another path acquires them in the reverse order (cycle: %s)", f.to, f.from, f.cycle)
	}
	return nil
}

const (
	lockNone = iota
	lockAcquire
	lockRelease
)

// lockCall classifies call as a mutex acquire/release and derives the lock
// key, when the callee is sync.(RW)Mutex.Lock/RLock/Unlock/RUnlock
// (including through embedding).
func lockCall(n *funcNode, call *ast.CallExpr) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	fn, ok := n.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockNone
	}
	var op int
	switch fn.Name() {
	case "Lock", "RLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return "", lockNone
	}
	return lockKeyOf(n, sel.X), op
}

// lockKeyOf names the mutex behind a receiver expression at type
// granularity: field selection → "pkg.Type.field", package-level var →
// "pkg.var", local embedding receiver → "pkg.Type", plain local → scoped to
// the enclosing function (cross-function edges through a local are
// meaningless). Unresolvable receivers return "".
func lockKeyOf(n *funcNode, expr ast.Expr) string {
	info := n.pkg.Info
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Obj().Name()
			}
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name() // pkg-qualified global
		}
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return ""
		}
		// Receiver whose type embeds the mutex: key by the named type.
		if named := namedOf(obj.Type()); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name()
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			return n.displayName() + "." + v.Name()
		}
	}
	return ""
}

// namedOf unwraps pointers and aliases to reach a named type, nil otherwise.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named
	}
	if p, ok := t.(*types.Pointer); ok {
		if named, ok := types.Unalias(p.Elem()).(*types.Named); ok {
			return named
		}
	}
	return nil
}

// lockScanner walks one function's statements in order, tracking held locks.
type lockScanner struct {
	g    *callGraph
	node *funcNode
	may  map[string]map[string]bool
	emit func(from, to string, pos token.Pos)
	// deferred collects go/defer closure bodies to scan as fresh scopes.
	deferred []*ast.FuncLit
}

func (s *lockScanner) scanStmts(stmts []ast.Stmt, held *[]string) {
	for _, st := range stmts {
		s.scanStmt(st, held)
	}
}

// scanStmt threads the held-set through one statement. Control-flow forks
// copy the set and restore after the branch, so sibling branches do not see
// each other's acquisitions.
func (s *lockScanner) scanStmt(stmt ast.Stmt, held *[]string) {
	branch := func(sub ast.Stmt) {
		if sub == nil {
			return
		}
		forked := append([]string(nil), *held...)
		s.scanStmt(sub, &forked)
	}
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		s.scanStmts(st.List, held)
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.scanExpr(st.Cond, held)
		branch(st.Body)
		branch(st.Else)
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		if st.Cond != nil {
			s.scanExpr(st.Cond, held)
		}
		branch(st.Body)
	case *ast.RangeStmt:
		s.scanExpr(st.X, held)
		branch(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		if st.Tag != nil {
			s.scanExpr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			branch(c)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		for _, c := range st.Body.List {
			branch(c)
		}
	case *ast.CaseClause:
		for _, e := range st.List {
			s.scanExpr(e, held)
		}
		s.scanStmts(st.Body, held)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			branch(c)
		}
	case *ast.CommClause:
		if st.Comm != nil {
			s.scanStmt(st.Comm, held)
		}
		s.scanStmts(st.Body, held)
	case *ast.DeferStmt:
		// defer x.Unlock(): held to function end — no state change now.
		// Deferred closures run at exit with an unknowable held-set; scan
		// their bodies as fresh scopes for the edges internal to them.
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			s.deferred = append(s.deferred, lit)
		}
	case *ast.GoStmt:
		// A new goroutine holds none of our locks.
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			s.deferred = append(s.deferred, lit)
		}
	default:
		s.scanExpr(stmt, held)
	}
}

// scanExpr visits the call expressions under node in source order, applying
// lock operations and call-summary edges. Function literals are deferred to
// a fresh scan: their bodies do not execute at this point in the statement
// stream.
func (s *lockScanner) scanExpr(node ast.Node, held *[]string) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			s.deferred = append(s.deferred, lit)
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op := lockCall(s.node, call); op != lockNone {
			switch op {
			case lockAcquire:
				if key != "" {
					for _, h := range *held {
						s.emit(h, key, call.Pos())
					}
					*held = append(*held, key)
				}
			case lockRelease:
				if key != "" {
					for i := len(*held) - 1; i >= 0; i-- {
						if (*held)[i] == key {
							*held = append((*held)[:i], (*held)[i+1:]...)
							break
						}
					}
				}
			}
			return true
		}
		if len(*held) == 0 {
			return true
		}
		if fn := staticCallee(s.node.pkg.Info, call); fn != nil {
			callee := s.g.nodes[funcKey(fn)]
			if callee != nil && !callee.panicOnly {
				var keys []string
				for k := range s.may[callee.key] {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					for _, h := range *held {
						s.emit(h, k, call.Pos())
					}
				}
			}
		}
		return true
	})
}

// sccMembers runs Tarjan's SCC over the lock-edge graph and returns, for
// every key inside a strongly connected component of size ≥ 2 (i.e. on a
// cycle), its component id.
func sccMembers(edges map[[2]string]token.Pos) map[string]int {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		nodes[e[0]] = true
		nodes[e[1]] = true
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, vs := range adj {
		sort.Strings(vs)
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	compID := 0
	comps := map[string]int{}
	sizes := map[int]int{}

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comps[w] = compID
				sizes[compID]++
				if w == v {
					break
				}
			}
			compID++
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	out := map[string]int{}
	for k, c := range comps {
		if sizes[c] >= 2 {
			out[k] = c
		}
	}
	return out
}
