package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// runLockorder is the whole-program lock-ordering analyzer. The repo's
// ten mutex-bearing packages share one declared partial order — the
// lock-rank lattice (shard < record < histnode < gate < hub plus the
// auxiliary ranks around them) — expressed as "//cwx:lockrank <name>
// <level>" directives on the mutex fields themselves. The analyzer:
//
//  1. classifies every sync.Mutex/RWMutex struct field into a lock
//     class (one class per field declaration, shared by all instances
//     — two records locked at once is the same inversion as record
//     before shard);
//  2. tracks, lexically per function, which classes are held at every
//     acquisition and at every call (in source order: a deferred Unlock
//     keeps the region open, a branch-local Unlock closes it early);
//  3. propagates acquisitions interprocedurally through the call graph
//     of resolved static callees to a fixpoint, so "holds record,
//     calls NodeSeries.AppendFrame which locks the node" becomes a
//     record→histnode edge with the full witness call chain;
//  4. reports every edge that acquires a ranked class at a level <=
//     one already held — an inversion of the declared order, or a
//     same-class re-entry (self-deadlock for plain mutexes) — plus any
//     cycle among classified-but-unranked locks;
//  5. requires every mutex field in the LockScope packages to carry a
//     directive, so the lattice cannot silently erode.
//
// Known blind spots, deliberate: calls through interfaces and
// func-valued fields (the serve.Gate Build callback, plugins, mailers)
// are not traced, and goroutine spawns do not propagate the spawner's
// held set (the new goroutine starts empty). The directive levels encode
// the order the visible call graph must respect. The callbacks run with
// no ingest lock held; the TestIngestPlugin* tests deadlock, and fail,
// on an ingest path that calls them under one.

// lockClass is one mutex field declaration: the unit of lock identity.
type lockClass struct {
	obj    types.Object // the field var (generic origin)
	owner  string       // "pkg.Struct.field" for messages
	rank   string       // directive name ("" when unranked)
	level  int
	ranked bool
}

func (c *lockClass) String() string {
	if c.ranked {
		return c.rank
	}
	return c.owner
}

// lockAcq is one direct Lock/RLock with the classes held at that point.
type lockAcq struct {
	class *lockClass
	pos   token.Pos
	held  []*lockClass
}

// lockCall is one resolved static call with the classes held at it.
type lockCall struct {
	callee *types.Func
	pos    token.Pos
	held   []*lockClass
}

// lockFunc is the per-function unit: a declaration or a function
// literal (literals start with an empty held set — they run later,
// outside the creating function's lock regions).
type lockFunc struct {
	fn    *types.Func // nil for literals
	pass  *pass
	name  string
	acqs  []lockAcq
	calls []lockCall
}

// lockEdge is "to acquired while from was held", with one witness: the
// positions of the call chain from the holding function down to the
// acquisition.
type lockEdge struct {
	from, to *lockClass
	pos      token.Pos   // report position (outermost frame)
	witness  []token.Pos // call chain, ending at the Lock call
	inFunc   string
}

// lockAnalysis is the assembled whole-program view; LockGraphDOT
// renders it, runLockorder reports on it.
type lockAnalysis struct {
	prog    *program
	classes []*lockClass
	byPos   map[token.Pos]*lockClass
	funcs   []*lockFunc
	edges   []*lockEdge
}

func runLockorder(prog *program) {
	a := analyzeLocks(prog)
	a.checkCoverage()
	a.checkOrder()
}

// analyzeLocks builds classes, per-function acquisition records, and
// the interprocedural edge set.
func analyzeLocks(prog *program) *lockAnalysis {
	a := &lockAnalysis{prog: prog, byPos: make(map[token.Pos]*lockClass)}
	for _, p := range prog.passes {
		a.collectClasses(p)
	}
	for _, p := range prog.passes {
		a.collectFuncs(p)
	}
	a.propagate()
	return a
}

// --- class discovery --------------------------------------------------------------

// collectClasses finds every mutex struct field and its //cwx:lockrank
// directive (on the field's own line or in its doc comment).
func (a *lockAnalysis) collectClasses(p *pass) {
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := p.pkg.Info.Defs[name]
					if obj == nil || !isMutexType(obj.Type()) {
						continue
					}
					cls := &lockClass{
						obj:   obj,
						owner: p.pkg.Pkg.Name() + "." + ts.Name.Name + "." + name.Name,
					}
					if rank, level, ok := lockrankDirective(field); ok {
						cls.rank, cls.level, cls.ranked = rank, level, true
					}
					a.classes = append(a.classes, cls)
					a.byPos[obj.Pos()] = cls
				}
			}
			return true
		})
	}
}

func isMutexType(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// lockrankDirective parses "//cwx:lockrank <name> <level>" from a
// field's trailing comment or doc comment.
func lockrankDirective(field *ast.Field) (rank string, level int, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, "//cwx:lockrank")
			if !found {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				continue
			}
			return fields[0], n, true
		}
	}
	return "", 0, false
}

// checkCoverage requires a directive on every mutex field of the
// LockScope packages, and consistent levels for shared rank names.
func (a *lockAnalysis) checkCoverage() {
	scope := make(map[string]bool, len(a.prog.cfg.LockScope))
	for _, s := range a.prog.cfg.LockScope {
		scope[s] = true
	}
	levels := make(map[string]*lockClass)
	for _, cls := range a.classes {
		if cls.ranked {
			if prev, ok := levels[cls.rank]; ok && prev.level != cls.level {
				a.prog.report(cls.obj.Pos(), "lockorder",
					"lockrank %q declared at level %d here but level %d on %s; one rank name, one level",
					cls.rank, cls.level, prev.level, prev.owner)
			} else {
				levels[cls.rank] = cls
			}
			continue
		}
		if pkg := cls.obj.Pkg(); pkg != nil && scope[pkg.Path()] {
			a.prog.report(cls.obj.Pos(), "lockorder",
				"mutex field %s has no //cwx:lockrank directive; every lock in this package must declare its place in the acquisition order",
				cls.owner)
		}
	}
}

// --- per-function acquisition tracking --------------------------------------------

// collectFuncs walks every function (and, as independent units, every
// function literal) recording acquisitions and resolved calls together
// with the lexically-held class set.
func (a *lockAnalysis) collectFuncs(p *pass) {
	for _, file := range p.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.pkg.Info.Defs[fd.Name].(*types.Func)
			name := fd.Name.Name
			if recv := recvTypeName2(fn); recv != "" {
				name = recv + "." + name
			}
			a.walkFunc(p, fn, name, fd.Body)
		}
	}
}

func recvTypeName2(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return recvTypeName(fn)
}

// walkFunc analyzes one body lexically, queueing nested literals as
// their own units.
func (a *lockAnalysis) walkFunc(p *pass, fn *types.Func, name string, body *ast.BlockStmt) {
	type unit struct {
		fn   *types.Func
		name string
		body *ast.BlockStmt
	}
	queue := []unit{{fn, name, body}}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		lf := &lockFunc{fn: u.fn, pass: p, name: u.name}
		var held []*lockClass
		deferred := make(map[*ast.CallExpr]bool)
		goCalls := make(map[*ast.CallExpr]bool)
		ast.Inspect(u.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				queue = append(queue, unit{nil, u.name + ".func", n.Body})
				return false
			case *ast.DeferStmt:
				deferred[n.Call] = true
				return true
			case *ast.GoStmt:
				// The spawned call runs on a fresh goroutine with no
				// inherited locks; only its argument expressions are
				// evaluated here.
				goCalls[n.Call] = true
				return true
			case *ast.CallExpr:
				if cls, op := a.classOp(p, n); op != "" {
					switch op {
					case "Lock", "RLock":
						if cls != nil {
							lf.acqs = append(lf.acqs, lockAcq{class: cls, pos: n.Pos(), held: append([]*lockClass(nil), held...)})
							held = append(held, cls)
						}
					case "Unlock", "RUnlock":
						if cls != nil && !deferred[n] {
							held = removeClass(held, cls)
						}
					}
					return true
				}
				if goCalls[n] {
					return true
				}
				if callee := calleeFunc(p, n); callee != nil {
					callee = callee.Origin()
					h := held
					if deferred[n] {
						// Deferred calls run at return, when branch-local
						// unlocks have all fired; only count them for the
						// transitive summary, not for held-edges.
						h = nil
					}
					lf.calls = append(lf.calls, lockCall{callee: callee, pos: n.Pos(), held: append([]*lockClass(nil), h...)})
				}
			}
			return true
		})
		a.funcs = append(a.funcs, lf)
	}
}

// classOp recognizes c.Lock/RLock/Unlock/RUnlock on a classified mutex
// field; op is "" for non-mutex calls, cls nil for unclassified
// (local-variable) mutexes.
func (a *lockAnalysis) classOp(p *pass, call *ast.CallExpr) (*lockClass, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	t := p.pkg.Info.TypeOf(sel.X)
	if t == nil || !isMutexType(t) {
		return nil, ""
	}
	var obj types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := p.pkg.Info.Selections[x]; ok {
			obj = s.Obj()
		} else {
			obj = p.pkg.Info.Uses[x.Sel]
		}
	case *ast.Ident:
		obj = p.pkg.Info.Uses[x]
		if obj == nil {
			obj = p.pkg.Info.Defs[x]
		}
	}
	if obj == nil {
		return nil, sel.Sel.Name
	}
	return a.byPos[obj.Pos()], sel.Sel.Name
}

func removeClass(held []*lockClass, cls *lockClass) []*lockClass {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == cls {
			return append(held[:i], held[i+1:]...)
		}
	}
	if len(held) > 0 {
		return held[:len(held)-1]
	}
	return held
}

// --- interprocedural propagation --------------------------------------------------

// witness is the call chain (positions) leading to an acquisition.
type witness []token.Pos

const maxWitness = 8

// summaries computes, per named function, every class it may acquire
// transitively, to a fixpoint (recursion converges because the class
// set only grows).
func (a *lockAnalysis) summaries() map[*types.Func]map[*lockClass]witness {
	sums := make(map[*types.Func]map[*lockClass]witness)
	add := func(fn *types.Func, cls *lockClass, w witness) bool {
		m := sums[fn]
		if m == nil {
			m = make(map[*lockClass]witness)
			sums[fn] = m
		}
		if _, ok := m[cls]; ok {
			return false
		}
		if len(w) > maxWitness {
			w = w[:maxWitness]
		}
		m[cls] = w
		return true
	}
	for _, lf := range a.funcs {
		if lf.fn == nil {
			continue
		}
		for _, acq := range lf.acqs {
			add(lf.fn, acq.class, witness{acq.pos})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, lf := range a.funcs {
			if lf.fn == nil {
				continue
			}
			for _, call := range lf.calls {
				for cls, w := range sums[call.callee] {
					if add(lf.fn, cls, append(witness{call.pos}, w...)) {
						changed = true
					}
				}
			}
		}
	}
	return sums
}

func (a *lockAnalysis) propagate() {
	sums := a.summaries()
	seen := make(map[[2]*lockClass]bool)
	record := func(from, to *lockClass, pos token.Pos, w witness, in string) {
		key := [2]*lockClass{from, to}
		if seen[key] {
			return
		}
		seen[key] = true
		a.edges = append(a.edges, &lockEdge{from: from, to: to, pos: pos, witness: w, inFunc: in})
	}
	for _, lf := range a.funcs {
		for _, acq := range lf.acqs {
			for _, h := range acq.held {
				record(h, acq.class, acq.pos, witness{acq.pos}, lf.name)
			}
		}
		for _, call := range lf.calls {
			if len(call.held) == 0 {
				continue
			}
			for cls, w := range sums[call.callee] {
				for _, h := range call.held {
					record(h, cls, call.pos, append(witness{call.pos}, w...), lf.name)
				}
			}
		}
	}
	sort.Slice(a.edges, func(i, j int) bool { return a.edges[i].pos < a.edges[j].pos })
}

// --- reporting --------------------------------------------------------------------

// checkOrder reports rank inversions and unranked cycles.
func (a *lockAnalysis) checkOrder() {
	for _, e := range a.edges {
		if !e.from.ranked || !e.to.ranked {
			continue
		}
		if e.from == e.to {
			a.prog.report(e.pos, "lockorder",
				"lock %s (%s, level %d) acquired while already held in %s (self-deadlock for plain mutexes, order violation for two instances)%s",
				e.to.rank, e.to.owner, e.to.level, e.inFunc, a.renderWitness(e))
			continue
		}
		if e.to.level <= e.from.level {
			a.prog.report(e.pos, "lockorder",
				"lock order inversion in %s: acquiring %s (%s, level %d) while holding %s (%s, level %d); declared order requires strictly increasing levels%s",
				e.inFunc, e.to.rank, e.to.owner, e.to.level, e.from.rank, e.from.owner, e.from.level, a.renderWitness(e))
		}
	}
	a.checkCycles()
}

// checkCycles finds acquisition cycles that rank checking cannot see
// because at least one participant is unranked. Self-edges of unranked
// classes are excluded: the unlock-relock helper pattern (internal/
// clock's callback dispatch) reads as a lexical self-edge.
func (a *lockAnalysis) checkCycles() {
	adj := make(map[*lockClass][]*lockEdge)
	for _, e := range a.edges {
		if e.from == e.to {
			continue
		}
		adj[e.from] = append(adj[e.from], e)
	}
	// DFS with a path stack; report each cycle once, at its first edge.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*lockClass]int)
	var stack []*lockEdge
	reported := make(map[*lockClass]bool)
	var visit func(c *lockClass)
	visit = func(c *lockClass) {
		color[c] = gray
		for _, e := range adj[c] {
			switch color[e.to] {
			case white:
				stack = append(stack, e)
				visit(e.to)
				stack = stack[:len(stack)-1]
			case gray:
				// Cycle: the stack suffix from e.to back to c, plus e.
				var cyc []*lockEdge
				for i := 0; i < len(stack); i++ {
					if len(cyc) > 0 || stack[i].from == e.to {
						cyc = append(cyc, stack[i])
					}
				}
				cyc = append(cyc, e)
				ranked := true
				for _, ce := range cyc {
					if !ce.from.ranked || !ce.to.ranked {
						ranked = false
					}
				}
				if ranked || reported[e.to] {
					continue // rank inversion reporting already covers it
				}
				reported[e.to] = true
				var names []string
				for _, ce := range cyc {
					names = append(names, ce.from.String())
				}
				names = append(names, e.to.String())
				a.prog.report(cyc[0].pos, "lockorder",
					"lock acquisition cycle %s; declare //cwx:lockrank directives so the order is checkable",
					strings.Join(names, " -> "))
			}
		}
		color[c] = black
	}
	var roots []*lockClass
	for c := range adj {
		roots = append(roots, c)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].owner < roots[j].owner })
	for _, c := range roots {
		if color[c] == white {
			visit(c)
		}
	}
}

// renderWitness formats the call chain as " [witness: file:line -> ...]"
// with basenames, compact enough for one diagnostic line.
func (a *lockAnalysis) renderWitness(e *lockEdge) string {
	if len(e.witness) == 0 {
		return ""
	}
	parts := make([]string, 0, len(e.witness))
	for _, pos := range e.witness {
		p := a.prog.fset.Position(pos)
		parts = append(parts, fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line))
	}
	return " [witness: " + strings.Join(parts, " -> ") + "]"
}

// --- DOT export -------------------------------------------------------------------

// LockGraphDOT renders the whole-program lock-acquisition graph as
// Graphviz DOT: one node per lock class (ranked classes labeled with
// their level, unranked dashed), one edge per acquired-while-held pair
// (its witness head as the edge label), inversions red. This is the
// `cwxlint -lockgraph` artifact CI uploads on every run.
func LockGraphDOT(pkgs []*Package, cfg Config) string {
	if len(cfg.LockScope) == 0 && cfg.Module != "" {
		cfg.LockScope = DefaultLockScope(cfg.Module)
	}
	var diags []Diagnostic
	passes := make([]*pass, 0, len(pkgs))
	for _, pkg := range pkgs {
		passes = append(passes, &pass{pkg: pkg, cfg: &cfg, allows: collectAllows(pkg), diags: &diags})
	}
	prog := buildProgram(passes, &cfg, &diags)
	a := analyzeLocks(prog)

	var b strings.Builder
	b.WriteString("digraph cwxlockorder {\n")
	b.WriteString("\trankdir=LR;\n")
	b.WriteString("\tnode [shape=box, fontname=\"monospace\"];\n")
	classes := append([]*lockClass(nil), a.classes...)
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].ranked != classes[j].ranked {
			return classes[i].ranked
		}
		if classes[i].level != classes[j].level {
			return classes[i].level < classes[j].level
		}
		return classes[i].owner < classes[j].owner
	})
	for _, c := range classes {
		if c.ranked {
			fmt.Fprintf(&b, "\t%q [label=\"%s\\n%s\\nlevel %d\"];\n", c.String(), c.rank, c.owner, c.level)
		} else {
			fmt.Fprintf(&b, "\t%q [label=%q, style=dashed];\n", c.String(), c.owner)
		}
	}
	// Edges in (from, to, file, line) order, so one commit's graph is one
	// file, byte for byte, and two commits' graphs diff line by line.
	edges := slices.Clone(a.edges)
	slices.SortFunc(edges, func(x, y *lockEdge) int {
		px, py := prog.fset.Position(x.pos), prog.fset.Position(y.pos)
		return cmp.Or(cmp.Compare(x.from.String(), y.from.String()), cmp.Compare(x.to.String(), y.to.String()),
			cmp.Compare(px.Filename, py.Filename), cmp.Compare(px.Line, py.Line))
	})
	for _, e := range edges {
		pos := prog.fset.Position(e.pos)
		attrs := fmt.Sprintf("label=\"%s:%d\"", filepath.Base(pos.Filename), pos.Line)
		if e.from.ranked && e.to.ranked && e.to.level <= e.from.level {
			attrs += ", color=red, penwidth=2"
		}
		fmt.Fprintf(&b, "\t%q -> %q [%s];\n", e.from.String(), e.to.String(), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
