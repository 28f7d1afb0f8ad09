// Package lint is cwxlint: a dependency-free static-analysis suite that
// mechanically enforces the repository's determinism, concurrency and
// allocation invariants — the properties the §5.3 "minimal
// intrusiveness" claim rests on. It keeps only the checks no other
// referee makes: an analyzer stays while a mutation it catches passes
// the race detector, the alloc gates, the determinism suites and the
// plugin-deadlock and goroutine-leak tests alike (DESIGN.md records the
// audit).
//
// Per-function analyzers:
//
//   - clockdet: simulation-scoped packages must go through
//     internal/clock and seeded rand.Rand instances, never the wall
//     clock or the global math/rand state, so every simulation and
//     fault-injection run is reproducible.
//   - atomicmix: a struct field accessed through sync/atomic anywhere
//     must never be read or written non-atomically elsewhere.
//
// Whole-program analyzers (interprocedural, over the full loaded
// module):
//
//   - lockorder: every sync.Mutex/RWMutex struct field in the
//     lock-scoped packages carries a "//cwx:lockrank <name> <level>"
//     directive; acquisitions are propagated through the call graph and
//     any edge that acquires a lock at a level <= one already held
//     (an inversion of the declared partial order, or a same-class
//     re-entry) is reported with its full witness call chain. The graph
//     is dumpable as DOT (cwxlint -lockgraph), its edges sorted, so one
//     commit always renders the same file.
//   - staticalloc: heap escapes reported by the compiler
//     (go build -gcflags=-m) inside //cwx:hotpath functions fail the
//     lint run. It is the compile-time half of the allocation
//     invariant; the TestAllocGate* tests count every allocation a hot
//     function makes at run time, escaping or not, and are the only
//     referee for the ones that do not escape.
//
// A finding is suppressed only inline, by "//cwx:allow <analyzers> --
// reason" on the flagged line or the line above, so every accepted
// exception sits, with its reason, where it is made.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the file:line:col form editors parse.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// JSON renders the finding as one self-contained JSON object (the
// cwxlint -json line format for editor and CI integration). The file is
// root-relative when the finding is under root.
func (d Diagnostic) JSON(root string) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	j, _ := json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}{file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
	return string(j)
}

// Config tunes an analysis run.
type Config struct {
	// ClockScope lists the import-path prefixes clockdet applies to.
	// Empty means the default simulation-scoped set under Module.
	ClockScope []string
	// LockScope lists the packages in which every sync.Mutex/RWMutex
	// struct field must carry a //cwx:lockrank directive. Empty means
	// the default mutex-bearing set under Module.
	LockScope []string
	// Escapes is the parsed compiler escape-analysis output staticalloc
	// checks against //cwx:hotpath functions (see GoBuildEscapes). Nil
	// skips the analyzer — it needs a build, which Run cannot do itself.
	Escapes []EscapeLine
	// Module is the module path, used to derive the default scopes.
	Module string
}

// DefaultClockScope returns the packages whose time sources must be the
// virtual clock: the simulation core and the engines whose behavior
// fault-injection runs replay deterministically.
func DefaultClockScope(module string) []string {
	return []string{
		module + "/internal/core",
		module + "/internal/simnet",
		module + "/internal/events",
		module + "/internal/notify",
	}
}

// DefaultLockScope returns the mutex-bearing packages whose locks form
// the pipeline's declared acquisition order (shard → record → series →
// gate → hub and the auxiliary ranks around them): every mutex field in
// them must carry a //cwx:lockrank directive.
func DefaultLockScope(module string) []string {
	return []string{
		module + "/internal/core",
		module + "/internal/history",
		module + "/internal/serve",
		module + "/internal/flight",
		module + "/internal/transmit",
		module + "/internal/telemetry",
		module + "/internal/events",
		module + "/internal/notify",
		module + "/internal/consolidate",
	}
}

// pass is one package plus its resolved suppression directives.
type pass struct {
	pkg    *Package
	cfg    *Config
	allows map[string]map[int][]string // file -> line -> allowed analyzers
	diags  *[]Diagnostic
}

func (p *pass) report(pos token.Pos, analyzer, format string, args ...any) {
	position := p.pkg.Fset.Position(pos)
	if p.allowed(position, analyzer) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowed reports whether an inline //cwx:allow directive on the finding
// line (trailing comment) or the line directly above covers analyzer.
func (p *pass) allowed(pos token.Position, analyzer string) bool {
	lines := p.allows[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// Run executes every analyzer over pkgs and returns the findings sorted
// by position, with the //cwx:allow suppressions applied.
func Run(pkgs []*Package, cfg Config) []Diagnostic {
	if len(cfg.ClockScope) == 0 && cfg.Module != "" {
		cfg.ClockScope = DefaultClockScope(cfg.Module)
	}
	if len(cfg.LockScope) == 0 && cfg.Module != "" {
		cfg.LockScope = DefaultLockScope(cfg.Module)
	}
	var diags []Diagnostic
	passes := make([]*pass, 0, len(pkgs))
	for _, pkg := range pkgs {
		passes = append(passes, &pass{pkg: pkg, cfg: &cfg, allows: collectAllows(pkg), diags: &diags})
	}
	for _, p := range passes {
		runClockdet(p)
	}
	runAtomicmix(passes)
	prog := buildProgram(passes, &cfg, &diags)
	runLockorder(prog)
	runStaticalloc(prog)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// program is the whole-module view the interprocedural analyzers
// (lockorder, staticalloc) share: one FileSet, every pass, a
// declaration index for call-graph resolution, and the merged
// suppression directives.
type program struct {
	fset   *token.FileSet
	passes []*pass
	cfg    *Config
	decls  map[*types.Func]*declInfo   // named funcs/methods with bodies
	allows map[string]map[int][]string // merged across passes
	diags  *[]Diagnostic
}

// declInfo ties a function object to its syntax and owning pass.
type declInfo struct {
	pass *pass
	decl *ast.FuncDecl
}

// buildProgram indexes every function declaration (keyed by its
// *types.Func so cross-package calls resolve — the loader type-checks
// local packages once, so objects are shared).
func buildProgram(passes []*pass, cfg *Config, diags *[]Diagnostic) *program {
	prog := &program{
		passes: passes,
		cfg:    cfg,
		decls:  make(map[*types.Func]*declInfo),
		allows: make(map[string]map[int][]string),
		diags:  diags,
	}
	for _, p := range passes {
		if prog.fset == nil {
			prog.fset = p.pkg.Fset
		}
		for file, lines := range p.allows {
			if prog.allows[file] == nil {
				prog.allows[file] = lines
			}
		}
		for _, f := range p.pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.decls[fn] = &declInfo{pass: p, decl: fd}
				}
			}
		}
	}
	return prog
}

// declOf resolves a call target to its declaration, mapping generic
// instantiations back to their origin.
func (prog *program) declOf(fn *types.Func) *declInfo {
	if fn == nil {
		return nil
	}
	return prog.decls[fn.Origin()]
}

// report records a finding at a resolved position unless an inline
// //cwx:allow covers it.
func (prog *program) report(pos token.Pos, analyzer, format string, args ...any) {
	prog.reportAt(prog.fset.Position(pos), analyzer, format, args...)
}

func (prog *program) reportAt(position token.Position, analyzer, format string, args ...any) {
	lines := prog.allows[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return
			}
		}
	}
	*prog.diags = append(*prog.diags, Diagnostic{
		Pos:      position,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// collectAllows indexes every "//cwx:allow a,b -- reason" comment by
// file and line.
func collectAllows(pkg *Package) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//cwx:allow")
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(strings.TrimSpace(rest), "--")
				pos := pkg.Fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					out[pos.Filename] = lines
				}
				for _, name := range strings.Split(names, ",") {
					if name = strings.TrimSpace(name); name != "" {
						lines[pos.Line] = append(lines[pos.Line], name)
					}
				}
			}
		}
	}
	return out
}

// hasDirective reports whether a doc comment carries the given marker
// line (e.g. "//cwx:hotpath").
func hasDirective(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			return true
		}
	}
	return false
}

// --- shared type helpers ----------------------------------------------------------

// calleeFunc resolves the function or method a call dispatches to, or
// nil for builtins, conversions and calls of function-typed values.
func calleeFunc(p *pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvTypeName returns the bare type name of a method's receiver ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// namedType dereferences pointers and returns the named type of t, if any.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}

// exprText renders a short source-ish form of an expression for
// messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + exprText(e.X) + ")"
	case *ast.UnaryExpr:
		return e.Op.String() + exprText(e.X)
	}
	return "expr"
}
