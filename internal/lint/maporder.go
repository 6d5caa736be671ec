package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MaporderAnalyzer flags map iterations whose outcome depends on Go's
// randomized map order — the classic source of run-to-run divergence in
// bin-packing and reconfiguration tie-breaks. A range over a map is
// reported when its body
//
//   - appends to a slice declared outside the loop (unless a sort.* /
//     slices.* call on that slice follows the loop in the same block),
//   - passes the iteration key or value to a call for its side effects
//     (an expression statement), so effects happen in map order,
//   - breaks out of the loop, selecting an arbitrary element,
//   - returns the iteration key or value, or
//   - accumulates a term that uses the key or value into a float
//     declared outside the loop (x += e, x -= e, x = x + e, x = x - e):
//     float addition is not associative, so the low bits depend on the
//     order.
//
// Order-independent bodies — writes into another map, integer
// accumulation, delete — are not flagged.
func MaporderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "flag map iterations that feed order-dependent decisions; sort keys first",
		Run:  runMaporder,
	}
}

func runMaporder(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	seen := map[token.Pos]bool{}
	once := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			report(pos, format, args...)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch b := n.(type) {
			case *ast.BlockStmt:
				checkStmtList(pkg, b.List, once)
			case *ast.CaseClause:
				checkStmtList(pkg, b.Body, once)
			case *ast.CommClause:
				checkStmtList(pkg, b.Body, once)
			}
			return true
		})
	}
}

func checkStmtList(pkg *Package, list []ast.Stmt, report func(pos token.Pos, format string, args ...any)) {
	for i, st := range list {
		rs, ok := st.(*ast.RangeStmt)
		if !ok || !rangesOverMap(pkg.Info, rs) {
			continue
		}
		checkMapRange(pkg, rs, list[i+1:], report)
	}
}

func rangesOverMap(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pkg *Package, rs *ast.RangeStmt, tail []ast.Stmt, report func(pos token.Pos, format string, args ...any)) {
	iterObjs := rangeVarObjects(pkg.Info, rs)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if tgt, term := floatAccumulation(pkg.Info, s); term != nil && usesAny(pkg.Info, term, iterObjs) && !declaredWithin(pkg.Info, tgt, rs) {
				report(s.Pos(), "float accumulation into %s in map-iteration order; float addition is not associative — sum over sorted keys",
					types.ExprString(tgt))
			}
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) || !isAppendCall(pkg.Info, rhs) {
					continue
				}
				target := s.Lhs[i]
				if declaredWithin(pkg.Info, target, rs) || sortedAfter(pkg.Info, target, tail) {
					continue
				}
				report(s.Pos(), "%s is appended to in map-iteration order; collect and sort the keys first, or sort %s before use",
					types.ExprString(target), types.ExprString(target))
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || isOrderFreeBuiltin(pkg.Info, call) {
				return true
			}
			if usesAny(pkg.Info, call, iterObjs) {
				report(s.Pos(), "%s runs side effects in map-iteration order; collect and sort the keys first",
					types.ExprString(call.Fun))
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if usesAny(pkg.Info, res, iterObjs) {
					report(s.Pos(), "returning a map-iteration element selects an arbitrary entry; sort the keys and pick deterministically")
					break
				}
			}
		}
		return true
	})

	reportLoopBreaks(rs.Body, report)
}

// floatAccumulation matches x += e, x -= e, x = x + e, x = e + x and
// x = x - e where x has float type, returning the accumulator x and the
// added term e; term is nil for any other statement.
func floatAccumulation(info *types.Info, as *ast.AssignStmt) (tgt, term ast.Expr) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloat(info, as.Lhs[0]) {
		return nil, nil
	}
	lhs, rhs := as.Lhs[0], as.Rhs[0]
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return lhs, rhs
	case token.ASSIGN:
		bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return nil, nil
		}
		if types.ExprString(bin.X) == types.ExprString(lhs) {
			return lhs, bin.Y
		}
		if bin.Op == token.ADD && types.ExprString(bin.Y) == types.ExprString(lhs) {
			return lhs, bin.X
		}
	}
	return nil, nil
}

// rangeVarObjects returns the objects bound to the key and value
// variables of a `for k, v := range m` statement.
func rangeVarObjects(info *types.Info, rs *ast.RangeStmt) []types.Object {
	var objs []types.Object
	if rs.Tok != token.DEFINE {
		return objs
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

func usesAny(info *types.Info, e ast.Expr, objs []types.Object) bool {
	if len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		use := info.Uses[id]
		for _, obj := range objs {
			if use == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isOrderFreeBuiltin reports calls whose per-element effect is
// order-independent (delete from a map) or diagnostic-only.
func isOrderFreeBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok {
		return false
	}
	switch b.Name() {
	case "delete", "print", "println", "panic":
		return true
	}
	return false
}

// declaredWithin reports whether the root identifier of target is
// declared inside the range statement (a per-iteration local).
func declaredWithin(info *types.Info, target ast.Expr, rs *ast.RangeStmt) bool {
	id := rootIdent(target)
	if id == nil {
		return false
	}
	obj := info.ObjectOf(id)
	return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether a sort.* / slices.* call on target follows
// the loop in the remaining statements of the enclosing block — the
// canonical collect-then-sort idiom.
func sortedAfter(info *types.Info, target ast.Expr, tail []ast.Stmt) bool {
	want := types.ExprString(target)
	for _, st := range tail {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		isSortPkg := false
		for _, path := range []string{"sort", "slices"} {
			if _, ok := pkgFunc(info, sel, path); ok {
				isSortPkg = true
				break
			}
		}
		if !isSortPkg {
			continue
		}
		arg := call.Args[0]
		// Unwrap one conversion/constructor, e.g. sort.Sort(byName(keys)).
		if c, ok := arg.(*ast.CallExpr); ok && len(c.Args) == 1 {
			arg = c.Args[0]
		}
		if types.ExprString(arg) == want {
			return true
		}
	}
	return false
}

// reportLoopBreaks flags unlabeled breaks that terminate the map range
// itself (not a nested loop, switch, or select).
func reportLoopBreaks(body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	var scan func(s ast.Stmt)
	scan = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.BranchStmt:
			if st.Tok == token.BREAK && st.Label == nil {
				report(st.Pos(), "break exits the map iteration at an arbitrary element; iterate sorted keys or complete the loop")
			}
		case *ast.BlockStmt:
			for _, c := range st.List {
				scan(c)
			}
		case *ast.IfStmt:
			scan(st.Body)
			if st.Else != nil {
				scan(st.Else)
			}
		case *ast.LabeledStmt:
			scan(st.Stmt)
		}
		// For/range/switch/select bodies are intentionally not entered:
		// breaks inside them bind to the inner statement.
	}
	for _, s := range body.List {
		scan(s)
	}
}
