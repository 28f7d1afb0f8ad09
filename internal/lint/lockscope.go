package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runLockscope enforces the two locking disciplines the PR 1 review
// established for the sharded ingest path:
//
//  1. Event-engine, notifier and plugin entry points must run with no
//     shard/record/history mutex held: they may synchronously call back
//     into the server (a rule plugin re-ingesting values for the node
//     under evaluation), so calling them under a lock is a latent
//     deadlock.
//  2. A sync.Pool.Get must be paired with a Put (or hand the pooled
//     value off by returning it) on every return path, or the pool
//     silently degrades into an allocator.
//
// The analysis is lexical (statements in source order, one function at
// a time): Lock() opens a held region, a non-deferred Unlock() closes
// it, and a deferred Unlock keeps the region open to the end of the
// function. That is deliberately conservative in the false-negative
// direction — branch-local unlocks end the region early — so it never
// cries wolf on the unlock-before-callback pattern the hot path uses.
func runLockscope(p *pass) {
	for _, file := range p.pkg.Files {
		var funcs []ast.Node
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
			}
		}
		for len(funcs) > 0 {
			fn := funcs[0]
			funcs = funcs[1:]
			var body *ast.BlockStmt
			switch fn := fn.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			funcs = append(funcs, checkLockRegions(p, body)...)
			checkPoolDiscipline(p, body)
		}
	}
}

// checkLockRegions walks one function body in source order tracking held
// mutexes, and returns the nested function literals for independent
// analysis (they execute later, outside this body's lock regions).
func checkLockRegions(p *pass, body *ast.BlockStmt) []ast.Node {
	var nested []ast.Node
	var held []string // names of mutexes currently held, lexically
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n)
			return false
		case *ast.DeferStmt:
			deferred[n.Call] = true
			return true
		case *ast.CallExpr:
			if name, op := mutexOp(p, n); op != "" {
				switch op {
				case "Lock", "RLock":
					held = append(held, name)
				case "Unlock", "RUnlock":
					if !deferred[n] {
						held = removeLock(held, name)
					}
				}
				return true
			}
			if len(held) > 0 {
				if what := reentrantEntry(p, n); what != "" {
					p.report(n.Pos(), "lockscope",
						"%s called while holding %s; event/notify/plugin entry points may re-enter the server and must run with no shard/record/history lock held",
						what, held[len(held)-1])
				}
			}
		}
		return true
	})
	return nested
}

// mutexOp recognizes m.Lock / m.RLock / m.Unlock / m.RUnlock where m is
// a sync.Mutex or sync.RWMutex (possibly behind a pointer), returning
// the lock's source name and the operation.
func mutexOp(p *pass, call *ast.CallExpr) (name, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	t := p.pkg.Info.TypeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if !isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex") {
		return "", ""
	}
	return exprText(sel.X), sel.Sel.Name
}

func removeLock(held []string, name string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == name {
			return append(held[:i], held[i+1:]...)
		}
	}
	if len(held) > 0 {
		return held[:len(held)-1]
	}
	return held
}

// reentrantEntry classifies a call as an entry point that may re-enter
// the management server: event-engine observation, notifier edges,
// mailer delivery, or invoking a function-valued struct field (the
// plugin/callback pattern). Returns a description or "".
func reentrantEntry(p *pass, call *ast.CallExpr) string {
	if fn := calleeFunc(p, call); fn != nil {
		name := fn.Name()
		switch name {
		case "EventTriggered", "EventCleared":
			return "notifier " + name
		case "Observe", "ObserveMap", "ObserveTraced":
			if recvTypeName(fn) == "Engine" {
				return "event engine " + name
			}
		case "Send":
			recv := recvTypeName(fn)
			if recv == "Mailer" || recv == "MailerFunc" || recv == "Recording" || recvPkgSuffix(fn, "/notify") {
				return "mailer Send"
			}
		}
		return ""
	}
	// A call of a function-typed struct field: the administrator
	// plugin/callback shape (Rule.Plugin, AgentConfig.SendFrame, onError).
	if v := funcValuedField(p, call.Fun); v != nil {
		return "func-valued field " + v.Name()
	}
	return ""
}

func recvPkgSuffix(fn *types.Func, suffix string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedType(sig.Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return len(path) >= len(suffix) && path[len(path)-len(suffix):] == suffix
}

// funcValuedField resolves e to a struct field of function type, if that
// is what is being called.
func funcValuedField(p *pass, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := p.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return nil
	}
	return v
}

// --- sync.Pool discipline ---------------------------------------------------------

type poolGet struct {
	obj  types.Object // variable the pooled value landed in (nil if discarded)
	pool string
	pos  token.Pos
}

type poolPut struct {
	pool    string
	pos     token.Pos
	inDefer bool
}

// checkPoolDiscipline verifies every sync.Pool.Get in the body has a
// matching Put — deferred, on every later return path, or via ownership
// hand-off (returning the pooled value). Lexical, like the lock check.
func checkPoolDiscipline(p *pass, body *ast.BlockStmt) {
	info := p.pkg.Info
	var gets []poolGet
	var puts []poolPut
	var returns []*ast.ReturnStmt
	deferred := make(map[*ast.CallExpr]bool)
	lastPos := body.End()

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed independently
		case *ast.DeferStmt:
			deferred[n.Call] = true
			if pool, name := poolOp(p, n.Call); name == "Put" {
				puts = append(puts, poolPut{pool: pool, pos: n.Call.Pos(), inDefer: true})
			}
			return true
		case *ast.ReturnStmt:
			returns = append(returns, n)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call := unwrapToCall(rhs)
				if call == nil {
					continue
				}
				pool, name := poolOp(p, call)
				if name != "Get" {
					continue
				}
				var obj types.Object
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						obj = info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
					}
				}
				gets = append(gets, poolGet{obj: obj, pool: pool, pos: call.Pos()})
			}
		case *ast.CallExpr:
			if pool, name := poolOp(p, n); name == "Put" && !deferred[n] {
				puts = append(puts, poolPut{pool: pool, pos: n.Pos()})
			}
		}
		return true
	})

	for _, g := range gets {
		if hasDeferredPut(puts, g) {
			continue
		}
		covered := false
		for _, ret := range returns {
			if ret.Pos() < g.pos {
				continue
			}
			covered = true
			if returnsObj(info, ret, g.obj) || putBetween(puts, g, g.pos, ret.Pos()) {
				continue
			}
			p.report(ret.Pos(), "lockscope",
				"return without %s.Put for the value from %s.Get (pooled value leaks; Put it, defer the Put, or return it to transfer ownership)",
				g.pool, g.pool)
		}
		if !covered && !putBetween(puts, g, g.pos, lastPos) {
			p.report(g.pos, "lockscope",
				"%s.Get without a matching %s.Put on the function's exit path (pooled value leaks)", g.pool, g.pool)
		}
	}
}

// poolOp recognizes P.Get() / P.Put(x) where P is a sync.Pool.
func poolOp(p *pass, call *ast.CallExpr) (pool, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if sel.Sel.Name != "Get" && sel.Sel.Name != "Put" {
		return "", ""
	}
	t := p.pkg.Info.TypeOf(sel.X)
	if t == nil || !isNamed(t, "sync", "Pool") {
		return "", ""
	}
	return exprText(sel.X), sel.Sel.Name
}

// unwrapToCall peels type assertions and parens off an expression,
// returning the underlying call (pool.Get().(T) is the common shape).
func unwrapToCall(e ast.Expr) *ast.CallExpr {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return t
		case *ast.TypeAssertExpr:
			e = t.X
		default:
			return nil
		}
	}
}

func hasDeferredPut(puts []poolPut, g poolGet) bool {
	for _, put := range puts {
		if put.inDefer && put.pool == g.pool && put.pos > g.pos {
			return true
		}
	}
	return false
}

func putBetween(puts []poolPut, g poolGet, from, to token.Pos) bool {
	for _, put := range puts {
		if !put.inDefer && put.pool == g.pool && put.pos > from && put.pos < to {
			return true
		}
	}
	return false
}

func returnsObj(info *types.Info, ret *ast.ReturnStmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, res := range ret.Results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok {
			if info.Uses[id] == obj {
				return true
			}
		}
	}
	return false
}
