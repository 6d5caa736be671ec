package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"protean/internal/lint"
)

// poolflowAnalyzer enforces the freelist ownership discipline documented
// in internal/pool: an object handed back via Free.Put may be recycled
// to unrelated code by the very next Get, so the putter must be done
// with it. Two violations are flagged, per function body:
//
//   - use after Put: the pooled object (the bare identifier passed to
//     Put) is read, written, called through, or captured by a closure
//     created after the Put, with no intervening reassignment of the
//     identifier. A second Put of the same identifier is the same bug
//     (double-put) and reports at the second call.
//   - retained pointer at Put: the object was stored into longer-lived
//     state — a field, an element of a container reached through a
//     selector/index, or a package-level variable — earlier in the body
//     and is still held there when Put runs. Detaching a sub-object
//     first (batch.Arrivals = nil; free.Put(batch)) is fine: only a
//     store of the identifier itself counts as retention.
//
// A freelist is recognized structurally: a Get/Put method call whose
// receiver's base named type is `Free` declared in a package named
// `pool` — internal/pool's generic Free[T] and test fixtures alike.
// The analysis is per-body and identifier-based (no aliasing, no
// interprocedural escape), which matches how the freelists are actually
// used: hot paths Get, fill, hand off, and Put the same local.
func poolflowAnalyzer(get func([]*lint.Package) *Program) *lint.ProgramAnalyzer {
	return &lint.ProgramAnalyzer{
		Name: "poolflow",
		Doc:  "flag pooled freelist objects used after Put or still retained in longer-lived state at Put",
		Run: func(pkgs []*lint.Package, report func(pos token.Pos, format string, args ...any)) {
			runPoolflow(get(pkgs), report)
		},
	}
}

// isPoolFreeCall reports whether call is recv.Get() or recv.Put(x) on a
// pool.Free value, returning the method name.
func isPoolFreeCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Put" {
		return "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Origin().Obj()
	return name, obj.Name() == "Free" && obj.Pkg() != nil && obj.Pkg().Name() == "pool"
}

// putEvent is one Free.Put(v) of a bare identifier.
type putEvent struct {
	v    *types.Var
	end  token.Pos // end of the Put call: uses beyond this are stale
	call *ast.CallExpr
}

func runPoolflow(p *Program, report func(pos token.Pos, format string, args ...any)) {
	for _, n := range p.Nodes {
		if n.Body() == nil || n.Lit != nil {
			// Literals are analyzed as part of their enclosing declaration:
			// poolflow is textual, and a closure's captured uses must be
			// ordered against the enclosing body's Put calls.
			continue
		}
		checkPoolBody(n, report)
	}
}

func checkPoolBody(n *Node, report func(pos token.Pos, format string, args ...any)) {
	info := n.Pkg.Info
	var puts []putEvent
	// retained[v] holds positions where v was stored into longer-lived
	// state; reassigns[v] holds positions where v was rebound.
	retained := map[*types.Var][]token.Pos{}
	reassigns := map[*types.Var][]token.Pos{}
	uses := map[*types.Var][]token.Pos{}

	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.CallExpr:
			if name, ok := isPoolFreeCall(info, s); ok && name == "Put" && len(s.Args) == 1 {
				if v := localVarOf(info, s.Args[0]); v != nil {
					puts = append(puts, putEvent{v: v, end: s.End(), call: s})
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v := varOf(info, id); v != nil {
						reassigns[v] = append(reassigns[v], id.Pos())
					}
				}
			}
			if longLivedTarget(info, s.Lhs) {
				for _, rhs := range s.Rhs {
					forEachBareVar(info, rhs, func(v *types.Var, pos token.Pos) {
						retained[v] = append(retained[v], pos)
					})
				}
			}
		case *ast.Ident:
			if v := varOf(info, s); v != nil {
				uses[v] = append(uses[v], s.Pos())
			}
		}
		return true
	})

	sort.Slice(puts, func(i, j int) bool { return puts[i].end < puts[j].end })
	for _, pe := range puts {
		// Taint window: from the Put's end to the next reassignment.
		clear := token.Pos(-1)
		for _, r := range reassigns[pe.v] {
			if r > pe.end && (clear < 0 || r < clear) {
				clear = r
			}
		}
		for _, u := range uses[pe.v] {
			if u > pe.end && (clear < 0 || u < clear) {
				report(u, "pooled %s used after Put; the freelist may already have handed it to unrelated code", pe.v.Name())
				break
			}
		}
		for _, r := range retained[pe.v] {
			if r < pe.end && !rebetween(reassigns[pe.v], r, pe.end) {
				report(pe.call.Pos(), "pooled %s is still retained in longer-lived state (stored at line %d) when Put runs; drop the stored pointer first",
					pe.v.Name(), n.Pkg.Fset.Position(r).Line)
				break
			}
		}
	}
}

// rebetween reports whether any reassignment position falls in (lo, hi).
func rebetween(res []token.Pos, lo, hi token.Pos) bool {
	for _, r := range res {
		if r > lo && r < hi {
			return true
		}
	}
	return false
}

// varOf resolves an identifier to its variable object (use or def).
func varOf(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// localVarOf returns the variable behind a bare (possibly parenthesized)
// identifier expression, or nil for anything more structured — poolflow
// only tracks objects Put directly by name.
func localVarOf(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v := varOf(info, id)
	if v == nil || v.IsField() {
		return nil
	}
	return v
}

// longLivedTarget reports whether any assignment target outlives the
// function body: a selector or index expression (field, map or slice
// element of something else) or a package-level variable.
func longLivedTarget(info *types.Info, lhs []ast.Expr) bool {
	for _, e := range lhs {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			return true
		case *ast.Ident:
			if v := varOf(info, t); v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return true
			}
		}
	}
	return false
}

// forEachBareVar visits every bare-identifier variable appearing in e,
// including identifiers nested in append(...) and composite literals —
// the shapes that smuggle a pointer into a container.
func forEachBareVar(info *types.Info, e ast.Expr, fn func(*types.Var, token.Pos)) {
	ast.Inspect(e, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.SelectorExpr:
			// x.Field retains the field's referent, not x itself: walking
			// into the selector would misread batch.Arrivals as batch.
			return false
		case *ast.Ident:
			if v := varOf(info, s); v != nil && !v.IsField() {
				fn(v, s.Pos())
			}
		}
		return true
	})
}
