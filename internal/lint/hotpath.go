package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runHotpath enforces the //cwx:hotpath contract: the annotated function
// body must be free of allocating constructs. The ingest, framing and
// telemetry-recording paths carry this annotation; the E15/E18 0-alloc
// benchmark results are the empirical side of the same invariant, this
// analyzer is the structural side.
func runHotpath(p *pass) {
	for _, file := range p.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "//cwx:hotpath") {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
}

func checkHotFunc(p *pass, fd *ast.FuncDecl) {
	info := p.pkg.Info
	blessed := blessedSlices(p, fd)
	nowCalls := 0
	inPlace := map[*ast.CallExpr]bool{} // conversions indexing a map
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if name := capturedVar(p, fd, n); name != "" {
				p.report(n.Pos(), "hotpath", "closure capturing %q allocates on the hot path", name)
			}
			return false // the literal runs later; its body is not this call's hot path
		case *ast.IndexExpr:
			// m[string(b)] reads the key in place: the compiler does not
			// allocate a conversion that indexes a map.
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				if conv, ok := ast.Unparen(n.Index).(*ast.CallExpr); ok && info.Types[ast.Unparen(conv.Fun)].IsType() {
					inPlace[conv] = true
				}
			}
		case *ast.CallExpr:
			if !inPlace[n] {
				checkHotCall(p, n, blessed, &nowCalls)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && info.Types[n].Value == nil && (isStringType(info, n.X) || isStringType(info, n.Y)) {
				p.report(n.Pos(), "hotpath", "string concatenation allocates on the hot path (append to a reusable []byte instead)")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info, n.Lhs[0]) {
				p.report(n.Pos(), "hotpath", "string concatenation allocates on the hot path (append to a reusable []byte instead)")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				p.report(n.Pos(), "hotpath", "map literal allocates on the hot path (hoist to setup or pool it)")
			case *types.Slice:
				p.report(n.Pos(), "hotpath", "slice literal allocates on the hot path (hoist to setup or reuse scratch)")
			}
		}
		return true
	})
}

func checkHotCall(p *pass, call *ast.CallExpr, blessed map[types.Object]bool, nowCalls *int) {
	info := p.pkg.Info
	// Type conversions between strings and byte/rune slices copy.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.TypeOf(call.Args[0])
		if from != nil {
			switch {
			case isStringKind(to) && isByteOrRuneSlice(from.Underlying()):
				p.report(call.Pos(), "hotpath", "byte slice to string conversion allocates on the hot path")
			case isByteOrRuneSlice(to) && isStringKind(from.Underlying()):
				p.report(call.Pos(), "hotpath", "string to []byte conversion allocates on the hot path")
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 && !blessedAppendDst(p, call.Args[0], blessed) {
				p.report(call.Pos(), "hotpath",
					"append to %s without preallocated-cap evidence (reslice a scratch buffer or make with capacity)",
					exprText(call.Args[0]))
			}
			return
		}
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.report(call.Pos(), "hotpath", "fmt.%s allocates on the hot path (use strconv.Append* or append)", fn.Name())
		return
	}
	if isPkgFunc(fn, "time", "Now") {
		*nowCalls++
		if *nowCalls > 1 {
			p.report(call.Pos(), "hotpath", "more than one time.Now per hot call (share one timestamp across measurements)")
		}
	}
}

// blessedSlices computes the set of slice variables a hot function may
// append to: parameters (the caller owns their capacity), reslicings of
// existing storage (x[:0] scratch reuse), sized makes, and chains of
// appends rooted in one of those. Iterated to a fixpoint so ordering in
// the source does not matter.
func blessedSlices(p *pass, fd *ast.FuncDecl) map[types.Object]bool {
	info := p.pkg.Info
	blessed := make(map[types.Object]bool)
	addIdent := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				blessed[obj] = true
			}
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				addIdent(name)
			}
		}
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			addIdent(name)
		}
	}
	objOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				obj := objOf(lhs)
				if obj == nil || blessed[obj] {
					continue
				}
				if blessedAppendDst(p, as.Rhs[i], blessed) {
					blessed[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return blessed
}

// blessedAppendDst reports whether e shows preallocated-cap evidence as
// an append destination.
func blessedAppendDst(p *pass, e ast.Expr, blessed map[types.Object]bool) bool {
	info := p.pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true // reslicing existing storage: buf[:0], buf[:n]
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return obj != nil && blessed[obj]
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					return len(e.Args) > 0 && blessedAppendDst(p, e.Args[0], blessed)
				case "make":
					// make([]T, n, c) or make([]T, n) with a non-zero
					// length is sizing evidence; make([]T, 0) is not.
					if len(e.Args) >= 3 {
						return true
					}
					if len(e.Args) == 2 {
						if tv, ok := info.Types[e.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
							return false
						}
						return true
					}
				}
			}
		}
	}
	return false
}

// capturedVar returns the name of a variable the function literal
// captures from the enclosing hot function, or "" when it captures
// nothing (a static closure, which does not allocate).
func capturedVar(p *pass, outer *ast.FuncDecl, lit *ast.FuncLit) string {
	info := p.pkg.Info
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= outer.Pos() && v.Pos() < outer.End() && !(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			found = v.Name()
		}
		return true
	})
	return found
}

func isStringType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isStringKind(t.Underlying())
}

func isStringKind(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
