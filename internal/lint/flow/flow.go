// Package flow implements PROTEAN's callgraph-aware determinism
// analyzers. Where the per-package rules in internal/lint catch
// syntactic nondeterminism (a literal time.Now, a raw map range), the
// flow suite proves semantic properties that byte-identical output
// across repeats and -parallel depends on: no RNG draw may cross a
// goroutine boundary unordered, hot paths stay allocation-free, and
// freelist objects are not touched after they are recycled. Unordered
// shared writes are data races, which go test -race catches.
//
// The suite builds one type-directed callgraph over every loaded
// package (BuildProgram), then runs four analyzers on it:
//
//   - rngflow: seeded *rand.Rand streams drawn from goroutine-reachable
//     code, drawn in map-iteration order, or aliased across packages
//     reachable from multiple spawn sites.
//   - hotalloc: heap-allocating constructs inside //protean:hotpath
//     functions and their callees.
//   - poolflow: pool.Free objects used after Put or still retained in
//     longer-lived state when Put runs.
//   - deadcode: functions, methods, types and whole packages that no
//     main, init or exported API of the root package reaches.
//
// The callgraph is CHA-lite: static call edges resolve through the type
// checker, interface calls fan out to every module type implementing
// the interface (class-hierarchy analysis without pointer analysis),
// and function literals hang off their enclosing function by a Closure
// edge — a literal is assumed invoked wherever it is created, which
// over-approximates callbacks stored for later (exactly what a
// determinism audit wants). Everything stays stdlib-only and every
// traversal is position-sorted, so findings and -graph dumps are
// deterministic.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"

	"protean/internal/lint"
)

// HotpathDirective marks a function as allocation-audited: hotalloc
// checks its body and static callees. The directive goes in the doc
// comment.
const HotpathDirective = "//protean:hotpath"

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// Static is a direct call to a known function or method.
	Static EdgeKind = iota
	// Interface is a call through an interface method, fanned out to
	// every module type implementing the interface (CHA).
	Interface
	// Closure links an enclosing function to a literal defined inside
	// it: the literal is assumed invoked where it is created.
	Closure
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "iface"
	case Closure:
		return "closure"
	}
	return "?"
}

// Edge is one resolved call from a Node.
type Edge struct {
	To   *Node
	Kind EdgeKind
	Pos  token.Pos // call site
}

// Node is one function in the callgraph: a declared function or method
// (Decl != nil) or a function literal (Lit != nil).
type Node struct {
	Name string      // qualified display name, unique per node
	Obj  *types.Func // nil for literals
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *lint.Package
	Hot  bool // carries //protean:hotpath
	Out  []*Edge

	body *ast.BlockStmt
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Body returns the function body (nil for bodyless declarations).
func (n *Node) Body() *ast.BlockStmt { return n.body }

// Spawn is one goroutine spawn site (a go statement).
type Spawn struct {
	Pos token.Pos
	// Roots are the functions the go statement may start.
	Roots []*Node
	// Looped reports that the go statement sits inside a loop of its
	// enclosing function, so it starts an unbounded number of
	// goroutines; reachability weights it as two distinct sites.
	Looped bool
	// In is the function containing the go statement.
	In *Node
}

// Program is the whole-module callgraph shared by the flow analyzers.
type Program struct {
	Pkgs   []*lint.Package
	Fset   *token.FileSet
	Nodes  []*Node // position-sorted
	Spawns []*Spawn

	funcs map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
	// methodsByName indexes declared methods for CHA interface fan-out.
	methodsByName map[string][]*Node
}

// FuncNode returns the node for a declared function or method, or nil.
func (p *Program) FuncNode(obj *types.Func) *Node { return p.funcs[obj] }

// BuildProgram constructs the callgraph over the loaded packages. It is
// built once per lint run and shared by all the flow analyzers.
func BuildProgram(pkgs []*lint.Package) *Program {
	p := &Program{
		Pkgs:          pkgs,
		funcs:         map[*types.Func]*Node{},
		lits:          map[*ast.FuncLit]*Node{},
		methodsByName: map[string][]*Node{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}

	// Pass 1: a node per declared function/method, so interface fan-out
	// and static edges in pass 2 can resolve forward references.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{
					Name: displayName(obj),
					Obj:  obj,
					Decl: fd,
					Pkg:  pkg,
					Hot:  hasHotpathDirective(fd.Doc),
					body: fd.Body,
				}
				p.funcs[obj] = n
				p.Nodes = append(p.Nodes, n)
				if fd.Recv != nil {
					p.methodsByName[fd.Name.Name] = append(p.methodsByName[fd.Name.Name], n)
				}
			}
		}
	}

	// Pass 2: walk each declared body, creating literal nodes and edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := p.funcs[obj]
				if n == nil {
					continue
				}
				p.walkBody(n, fd.Body, 0)
			}
		}
	}

	sort.Slice(p.Nodes, func(i, j int) bool { return p.Nodes[i].Pos() < p.Nodes[j].Pos() })
	sort.Slice(p.Spawns, func(i, j int) bool { return p.Spawns[i].Pos < p.Spawns[j].Pos })
	for _, n := range p.Nodes {
		sort.Slice(n.Out, func(i, j int) bool {
			if n.Out[i].Pos != n.Out[j].Pos {
				return n.Out[i].Pos < n.Out[j].Pos
			}
			return n.Out[i].To.Name < n.Out[j].To.Name
		})
	}
	return p
}

// walkBody records call edges, literal sub-nodes, and spawn sites found
// in body, which belongs to node n. loopDepth tracks enclosing for/range
// statements within n, so a `go` inside a loop is marked Looped.
func (p *Program) walkBody(n *Node, body ast.Node, loopDepth int) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.FuncLit:
			lit := p.litNode(n, s)
			n.Out = append(n.Out, &Edge{To: lit, Kind: Closure, Pos: s.Pos()})
			// The literal's own body is walked as the literal node, with a
			// fresh loop depth: its execution context is its own.
			p.walkBody(lit, s.Body, 0)
			return false
		case *ast.ForStmt:
			p.walkLoop(n, s.Body, loopDepth+1, s.Init, s.Cond, s.Post)
			return false
		case *ast.RangeStmt:
			p.walkLoop(n, s.Body, loopDepth+1, nil, s.X, nil)
			return false
		case *ast.GoStmt:
			p.addSpawn(n, s, loopDepth)
			// The call expression's callee edge is still recorded below via
			// the CallExpr case when Inspect descends into s.Call.
			return true
		case *ast.CallExpr:
			for _, e := range p.resolveCall(n.Pkg, s) {
				n.Out = append(n.Out, e)
			}
			return true
		}
		return true
	})
}

// walkLoop walks the header expressions at the current depth and the
// loop body one level deeper.
func (p *Program) walkLoop(n *Node, body *ast.BlockStmt, depth int, hdr ...ast.Node) {
	for _, h := range hdr {
		if h != nil && h != ast.Node(nil) {
			p.walkBody(n, h, depth-1)
		}
	}
	p.walkBody(n, body, depth)
}

func (p *Program) litNode(parent *Node, lit *ast.FuncLit) *Node {
	if n, ok := p.lits[lit]; ok {
		return n
	}
	pos := parent.Pkg.Fset.Position(lit.Pos())
	n := &Node{
		Name: fmt.Sprintf("%s$%d:%d", parent.Name, pos.Line, pos.Column),
		Lit:  lit,
		Pkg:  parent.Pkg,
		body: lit.Body,
	}
	p.lits[lit] = n
	p.Nodes = append(p.Nodes, n)
	return n
}

func (p *Program) addSpawn(n *Node, g *ast.GoStmt, loopDepth int) {
	sp := &Spawn{Pos: g.Pos(), Looped: loopDepth > 0, In: n}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		sp.Roots = append(sp.Roots, p.litNode(n, fun))
	default:
		for _, e := range p.resolveCall(n.Pkg, g.Call) {
			sp.Roots = append(sp.Roots, e.To)
		}
	}
	p.Spawns = append(p.Spawns, sp)
}

// resolveCall returns the callgraph edges for one call expression:
// nothing for stdlib callees, one Static edge for a direct module call,
// or one Interface edge per implementing module type for an interface
// method call.
func (p *Program) resolveCall(pkg *lint.Package, call *ast.CallExpr) []*Edge {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if n := p.funcs[obj]; n != nil {
				return []*Edge{{To: n, Kind: Static, Pos: call.Pos()}}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return p.interfaceEdges(sel, call)
			}
		}
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := p.funcs[obj]; n != nil {
				return []*Edge{{To: n, Kind: Static, Pos: call.Pos()}}
			}
		}
	}
	return nil
}

// interfaceEdges fans an interface method call out to every declared
// module method whose receiver type implements the interface.
func (p *Program) interfaceEdges(sel *types.Selection, call *ast.CallExpr) []*Edge {
	iface, ok := sel.Recv().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	name := sel.Obj().Name()
	var out []*Edge
	for _, cand := range p.methodsByName[name] {
		recv := cand.Obj.Type().(*types.Signature).Recv().Type()
		base := recv
		if ptr, ok := base.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(base), iface) {
			out = append(out, &Edge{To: cand, Kind: Interface, Pos: call.Pos()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To.Name < out[j].To.Name })
	return out
}

// SpawnReach maps every node to the spawn sites it is reachable from
// (over all edge kinds, starting at each spawn's roots). The slice per
// node is ordered by spawn position.
func (p *Program) SpawnReach() map[*Node][]*Spawn {
	reach := map[*Node][]*Spawn{}
	for _, sp := range p.Spawns {
		seen := map[*Node]bool{}
		queue := append([]*Node{}, sp.Roots...)
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n == nil || seen[n] {
				continue
			}
			seen[n] = true
			reach[n] = append(reach[n], sp)
			for _, e := range n.Out {
				queue = append(queue, e.To)
			}
		}
	}
	return reach
}

// SpawnWeight is the concurrency-hazard weight of a spawn set: each site
// counts once, a looped site twice (it stands for N goroutines).
func SpawnWeight(spawns []*Spawn) int {
	w := 0
	for _, sp := range spawns {
		w++
		if sp.Looped {
			w++
		}
	}
	return w
}

// ReachableFrom returns the set of nodes reachable from roots over the
// given edge kinds (all kinds when none are specified).
func (p *Program) ReachableFrom(roots []*Node, kinds ...EdgeKind) map[*Node]bool {
	allowed := map[EdgeKind]bool{}
	for _, k := range kinds {
		allowed[k] = true
	}
	seen := map[*Node]bool{}
	queue := append([]*Node{}, roots...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Out {
			if len(allowed) == 0 || allowed[e.Kind] {
				queue = append(queue, e.To)
			}
		}
	}
	return seen
}

// Dump writes the callgraph in a stable text form: one line per node
// (with [hotpath] and spawn markers) and one indented line per edge.
// cmd/protean-lint -graph prints this for debugging analyzer scope.
func (p *Program) Dump(w io.Writer) {
	spawnAt := map[*Node][]*Spawn{}
	for _, sp := range p.Spawns {
		for _, r := range sp.Roots {
			spawnAt[r] = append(spawnAt[r], sp)
		}
	}
	for _, n := range p.Nodes {
		var marks []string
		if n.Hot {
			marks = append(marks, "[hotpath]")
		}
		for _, sp := range spawnAt[n] {
			m := "[go]"
			if sp.Looped {
				m = "[go×N]"
			}
			marks = append(marks, m)
		}
		suffix := ""
		if len(marks) > 0 {
			suffix = " " + strings.Join(marks, " ")
		}
		fmt.Fprintf(w, "%s%s\n", n.Name, suffix)
		for _, e := range n.Out {
			pos := p.Fset.Position(e.Pos)
			fmt.Fprintf(w, "  -> %s [%s] at %s:%d\n", e.To.Name, e.Kind, pos.Filename, pos.Line)
		}
	}
}

// displayName renders a stable qualified node name:
// pkg/path.Func or pkg/path.(*Recv).Method.
func displayName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
			ptr = "*"
		}
		name := t.String()
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s%s).%s", pkgPath, ptr, name, obj.Name())
	}
	return pkgPath + "." + obj.Name()
}

// hasHotpathDirective reports whether a doc comment carries
// //protean:hotpath.
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == HotpathDirective {
			return true
		}
	}
	return false
}

// Analyzers returns the flow suite as lint.ProgramAnalyzers. The
// callgraph is built once on first use and shared by all four — the
// returned analyzers are therefore for a single RunProgram call, which
// is how cmd/protean-lint uses them. The analyzer names must match
// lint.FlowRules(); a test pins the two lists together.
func Analyzers() []*lint.ProgramAnalyzer {
	var prog *Program
	get := func(pkgs []*lint.Package) *Program {
		if prog == nil {
			prog = BuildProgram(pkgs)
		}
		return prog
	}
	return []*lint.ProgramAnalyzer{
		deadcodeAnalyzer(get),
		hotallocAnalyzer(get),
		poolflowAnalyzer(get),
		rngflowAnalyzer(get),
	}
}
