package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"protean/internal/lint"
)

// hotallocAnalyzer flags heap-allocating constructs inside functions
// marked //protean:hotpath and the module functions they statically
// call. The rebalance and timer paths, and the GPU's read-only views,
// are allocation-free so the O(events) inner loop never touches the
// garbage collector; this rule turns that property from a benchmark
// observation into a CI gate.
//
// Flagged: &T{...} and slice/map composite literals, make/new, append
// (may grow), function literals (closure capture), string concatenation
// and string<->[]byte conversions, go statements, and arguments boxed
// into interface parameters (pointer-shaped values are exempt — they
// fit an interface word without allocating).
//
// Exempt regions: if-branches that end by returning an error or
// panicking (cold validation paths), and blocks guarded by a tracer
// .Enabled() check (tracing is opt-in and already excluded from the
// measured hot path). Calls inside exempt regions do not pull their
// callees into scope.
func hotallocAnalyzer(get func([]*lint.Package) *Program) *lint.ProgramAnalyzer {
	return &lint.ProgramAnalyzer{
		Name: "hotalloc",
		Doc:  "flag heap allocations inside //protean:hotpath functions and their static callees",
		Run: func(pkgs []*lint.Package, report func(pos token.Pos, format string, args ...any)) {
			runHotalloc(get(pkgs), report)
		},
	}
}

func runHotalloc(p *Program, report func(pos token.Pos, format string, args ...any)) {
	seen := map[*Node]bool{}
	reported := map[token.Pos]bool{}
	once := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			report(pos, format, args...)
		}
	}
	// Hot roots in position order; BFS through static callees found in
	// non-exempt regions keeps the audited set deterministic.
	queue := []*Node{}
	via := map[*Node]string{}
	for _, n := range p.Nodes {
		if n.Hot {
			queue = append(queue, n)
			via[n] = n.Name
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] || n.Body() == nil {
			continue
		}
		seen[n] = true
		callees := checkHotBody(p, n, via[n], once)
		for _, c := range callees {
			if !seen[c] {
				if _, ok := via[c]; !ok {
					via[c] = via[n]
				}
				queue = append(queue, c)
			}
		}
	}
}

// checkHotBody reports allocating constructs in n's body and returns
// the static module callees reached from non-exempt code.
func checkHotBody(p *Program, n *Node, root string, report func(pos token.Pos, format string, args ...any)) []*Node {
	info := n.Pkg.Info
	var callees []*Node
	where := ""
	if n.Name != root {
		where = " (reached from //protean:hotpath " + root + ")"
	}

	var walk func(x ast.Node)
	walk = func(x ast.Node) {
		if x == nil {
			return
		}
		ast.Inspect(x, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.IfStmt:
				if exemptBranch(info, e) {
					// Cold or trace-guarded branch: skip the body, keep
					// checking the else arm and the condition's own calls
					// (conditions are evaluated on the hot path).
					walk(e.Init)
					walk(e.Cond)
					if e.Else != nil {
						walk(e.Else)
					}
					return false
				}
				return true
			case *ast.FuncLit:
				report(e.Pos(), "closure allocates in hot path%s; hoist the func value or restructure", where)
				return false
			case *ast.GoStmt:
				report(e.Pos(), "go statement in hot path%s allocates a goroutine stack", where)
				return false
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
						report(e.Pos(), "&composite literal escapes to the heap in hot path%s; reuse a pooled or preallocated value", where)
					}
				}
			case *ast.CompositeLit:
				if t := info.TypeOf(e); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
						report(e.Pos(), "%s literal allocates in hot path%s; preallocate outside the loop", kindName(t), where)
					}
				}
			case *ast.BinaryExpr:
				if e.Op == token.ADD && isString(info.TypeOf(e.X)) {
					report(e.Pos(), "string concatenation allocates in hot path%s", where)
				}
			case *ast.CallExpr:
				callees = append(callees, checkHotCall(p, n, e, where, report)...)
			}
			return true
		})
	}
	walk(n.Body())
	return callees
}

// checkHotCall classifies one call in hot code: builtin allocators,
// allocating conversions, interface boxing of arguments, and returns
// the static module callees to audit next.
func checkHotCall(p *Program, n *Node, call *ast.CallExpr, where string, report func(pos token.Pos, format string, args ...any)) []*Node {
	info := n.Pkg.Info
	// Freelist traffic is the sanctioned way to "allocate" on the hot
	// path: Get reuses a pooled object (its new(T) is the one-time refill
	// miss, amortized away in steady state) and Put recycles one. Neither
	// the call nor its callee counts against the allocation audit;
	// poolflow separately polices the object's lifetime.
	if _, ok := isPoolFreeCall(info, call); ok {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				report(call.Pos(), "%s allocates in hot path%s; preallocate and reuse", b.Name(), where)
			case "append":
				report(call.Pos(), "append may grow its backing array in hot path%s; preallocate capacity or reuse a buffer", where)
			}
			return nil
		}
	}
	// Conversions: string <-> []byte copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := info.TypeOf(call.Fun), info.TypeOf(call.Args[0])
		if (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from)) {
			report(call.Pos(), "string/[]byte conversion copies in hot path%s", where)
		}
		return nil
	}
	// Interface boxing of non-pointer-shaped arguments.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && !call.Ellipsis.IsValid() {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt == nil || !types.IsInterface(pt) {
				continue
			}
			at := info.TypeOf(arg)
			if at == nil || types.IsInterface(at) || pointerShaped(at) || isUntypedNil(info, arg) {
				continue
			}
			report(arg.Pos(), "%s boxed into interface argument allocates in hot path%s; pass a pointer-shaped value", at.String(), where)
		}
	}
	var out []*Node
	for _, e := range p.resolveCall(n.Pkg, call) {
		if e.Kind == Static && e.To.Decl != nil {
			out = append(out, e.To)
		}
	}
	return out
}

// exemptBranch reports whether an if statement's body is off the hot
// path: it ends by returning an error or panicking (cold validation),
// or its condition gates on a tracer-style .Enabled() call.
func exemptBranch(info *types.Info, s *ast.IfStmt) bool {
	if condCallsEnabled(s.Cond) {
		return true
	}
	if len(s.Body.List) == 0 {
		return false
	}
	switch last := s.Body.List[len(s.Body.List)-1].(type) {
	case *ast.ReturnStmt:
		for _, res := range last.Results {
			if returnsError(info, res) {
				return true
			}
		}
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		}
	}
	return false
}

func condCallsEnabled(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Enabled" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// returnsError reports whether the returned expression is a non-nil
// error value (the marker of a cold validation branch).
func returnsError(info *types.Info, res ast.Expr) bool {
	if isUntypedNil(info, res) {
		return false
	}
	t := info.TypeOf(res)
	return t != nil && types.Implements(t, errorIface)
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
