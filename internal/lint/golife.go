package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// runGolife checks every `go` statement in the module for the two
// goroutine defects -race cannot see because they are lifecycle, not
// data, properties:
//
//  1. Provable shutdown. The spawned function must not contain an
//     unbounded loop (a `for` with no condition, or a `for range` over
//     a channel) without an exit path — a return, a break that targets
//     the loop, a panic, or a process exit. A loop whose condition is
//     an expression (`for sig.Wait(stop)`) is bounded by construction:
//     the condition is the shutdown hook. There is no opt-out: even a
//     daemon's process-lifetime goroutines end when it stops.
//
//  2. Guarded sends. Every channel send lexically inside the spawned
//     function must be a case of a `select` with an alternative (a
//     second case or a default), or the channel must be provably
//     buffered — declared in the same package with make(chan T, n) for
//     a constant n > 0, and never reassigned. An unconditional send on
//     a maybe-full, maybe-abandoned channel is the classic shape of a
//     goroutine that outlives its consumer and leaks forever.
//
// The analysis follows one call level: `go s.run()` is checked against
// run's body when the callee resolves statically. Spawns of func values
// or interface methods are invisible (same documented blind spot as
// lockorder) — the repo's spawn sites are all direct.
func runGolife(prog *program) {
	for _, p := range prog.passes {
		for _, file := range p.pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkSpawn(prog, p, gs)
				return true
			})
		}
	}
}

// checkSpawn applies both golife rules to one `go` statement.
func checkSpawn(prog *program, p *pass, gs *ast.GoStmt) {
	var body *ast.BlockStmt
	bodyPass := p
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if callee := calleeFunc(p, gs.Call); callee != nil {
			if di := prog.declOf(callee); di != nil {
				body = di.decl.Body
				bodyPass = di.pass
			}
		}
	}
	if body == nil {
		return // func value / interface method: statically invisible
	}
	for _, loop := range unboundedLoops(bodyPass, body) {
		if !hasExitPath(bodyPass, loop) {
			prog.report(loop.Pos(), "golife",
				"goroutine has an unbounded loop with no exit path; drive it from a stop channel or a clock condition")
		}
	}
	checkSends(prog, bodyPass, body)
}

// unboundedLoops returns the loops in body that run forever unless a
// statement exits them: `for { }`, `for ... ; ; ... { }`, and
// `for range ch` (the channel may never be closed; if close-on-shutdown
// is the protocol, the close site is a break/return away from being
// provable). Nested function literals are
// separate goroutine-less scopes and are skipped.
func unboundedLoops(p *pass, body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				loops = append(loops, n)
			}
		case *ast.RangeStmt:
			if t := p.pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					loops = append(loops, n)
				}
			}
		}
		return true
	})
	return loops
}

// hasExitPath reports whether loop contains a statement that leaves it:
// a return, a break targeting this loop (unlabeled at loop depth, or
// labeled with the loop's label), a panic, or a process exit.
func hasExitPath(p *pass, loop ast.Stmt) bool {
	label := loopLabel(p, loop)
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	found := false
	// depth counts breakable constructs between the loop and the
	// statement: 0 means an unlabeled break targets this loop.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil || found {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // runs in another frame; its returns don't exit the loop
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			if n.Tok != token.BREAK {
				return
			}
			if n.Label == nil {
				if depth == 0 {
					found = true
				}
			} else if label != "" && n.Label.Name == label {
				found = true
			}
			return
		case *ast.CallExpr:
			if isTerminalCall(p, n) {
				found = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			depth++
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n || c == nil || found {
				return c == n && !found
			}
			walk(c, depth)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt, 0)
		if found {
			return true
		}
	}
	return false
}

// loopLabel finds the label naming loop, if the parent statement is a
// LabeledStmt (resolved syntactically via the enclosing file).
func loopLabel(p *pass, loop ast.Stmt) string {
	for _, f := range p.pkg.Files {
		if loop.Pos() < f.Pos() || loop.Pos() >= f.End() {
			continue
		}
		var label string
		ast.Inspect(f, func(n ast.Node) bool {
			if ls, ok := n.(*ast.LabeledStmt); ok && ls.Stmt == loop {
				label = ls.Label.Name
				return false
			}
			return true
		})
		return label
	}
	return ""
}

// isTerminalCall recognizes calls that never return: panic, os.Exit,
// runtime.Goexit, and the log.Fatal family.
func isTerminalCall(p *pass, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := p.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	switch {
	case isPkgFunc(fn, "os", "Exit"),
		isPkgFunc(fn, "runtime", "Goexit"),
		isPkgFunc(fn, "log", "Fatal"),
		isPkgFunc(fn, "log", "Fatalf"),
		isPkgFunc(fn, "log", "Fatalln"):
		return true
	}
	return false
}

// --- guarded sends ----------------------------------------------------------------

// checkSends flags unconditional channel sends inside a spawned body:
// every send must sit in a select with an alternative, or target a
// provably buffered channel.
func checkSends(prog *program, p *pass, body *ast.BlockStmt) {
	guarded := make(map[*ast.SendStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		alternatives := len(sel.Body.List)
		for _, clause := range sel.Body.List {
			cc := clause.(*ast.CommClause)
			if send, ok := cc.Comm.(*ast.SendStmt); ok && alternatives >= 2 {
				// A one-case select is a bare send in costume; with an
				// alternative (another case or a default, Comm==nil) the
				// send cannot wedge the goroutine.
				guarded[send] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok || guarded[send] {
			return true
		}
		if buffered(p, send.Chan) {
			return true
		}
		prog.report(send.Pos(), "golife",
			"unguarded channel send on %s in a spawned goroutine; guard it with a select (stop/default case) or make the channel provably buffered (make(chan T, n) in this package)",
			exprText(send.Chan))
		return true
	})
}

// buffered reports whether the channel expression resolves to an object
// every package-local binding of which is make(chan T, n) with constant
// n > 0. One unbuffered (or invisible) binding disqualifies it.
func buffered(p *pass, ch ast.Expr) bool {
	obj := chanObj(p, ch)
	if obj == nil {
		return false
	}
	makes := bufferedObjs(p)
	state, seen := makes[obj]
	return seen && state
}

// chanObj resolves a channel expression to the variable or field it
// reads from.
func chanObj(p *pass, ch ast.Expr) types.Object {
	switch x := ast.Unparen(ch).(type) {
	case *ast.Ident:
		if obj := p.pkg.Info.Uses[x]; obj != nil {
			return obj
		}
		return p.pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		if s, ok := p.pkg.Info.Selections[x]; ok {
			return s.Obj()
		}
		return p.pkg.Info.Uses[x.Sel]
	}
	return nil
}

// bufferedObjs scans the whole package once for channel bindings:
// object -> true when every observed binding is a buffered make, false
// as soon as one is not. Recomputed per call — package counts are small
// and lint runs are not hot paths.
func bufferedObjs(p *pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	note := func(obj types.Object, isBuffered bool) {
		if obj == nil {
			return
		}
		if prev, ok := out[obj]; ok {
			out[obj] = prev && isBuffered
		} else {
			out[obj] = isBuffered
		}
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.pkg.Info.Defs[id]
					if obj == nil {
						obj = p.pkg.Info.Uses[id]
					}
					if obj == nil || !isChanType(obj.Type()) {
						continue
					}
					note(obj, isBufferedMake(p, rhs))
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					obj := p.pkg.Info.Defs[name]
					if obj == nil || !isChanType(obj.Type()) {
						continue
					}
					if i < len(n.Values) {
						note(obj, isBufferedMake(p, n.Values[i]))
					}
				}
			case *ast.KeyValueExpr:
				// struct composite literal: Field: make(chan T, n)
				id, ok := n.Key.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.pkg.Info.Uses[id]
				if obj == nil || !isChanType(obj.Type()) {
					return true
				}
				note(obj, isBufferedMake(p, n.Value))
			}
			return true
		})
	}
	return out
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isBufferedMake reports whether e is make(chan T, n) with constant n > 0.
func isBufferedMake(p *pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := p.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := p.pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	n, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && n > 0
}
