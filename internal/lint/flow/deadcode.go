package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"protean/internal/lint"
)

// deadcodeAnalyzer reports non-test functions, methods, types and whole
// packages that no program built from the module can reach. Reachability
// starts at
//
//   - every main function, and every init function and package-level
//     var and const initializer of a package that is linked in;
//   - the exported API of the module's root package (its exported
//     package-level names and the exported methods of its exported
//     types).
//
// A package is linked in once anything in it is reachable (or it is a
// main or the root package). From a reached function the analysis
// follows the Program's static, interface (CHA) and closure edges, plus
// a reference edge for every identifier the declaration uses, which
// covers function and method values (HTTP handlers, sim callbacks),
// types named in signatures and fields, and `var _ I = (*T)(nil)`
// assertions. A reached type also reaches each method that makes it
// satisfy an interface declared in the module or in any package the
// module imports, standard library included, so String, Error,
// ServeHTTP, Less or Push stay live even though only the library calls
// them.
//
// Test files are never loaded, so code only tests reach is reported.
// A test-only reference implementation stays with a //lint:ignore
// deadcode directive naming the test that uses it. A run without a main
// or the root package (a subtree such as ./internal/...) has no roots,
// so the analyzer does not apply to it.
func deadcodeAnalyzer(get func([]*lint.Package) *Program) *lint.ProgramAnalyzer {
	return &lint.ProgramAnalyzer{
		Name: "deadcode",
		Doc:  "flag functions, methods, types and packages unreachable from every main, init and the root package's exported API",
		Run: func(pkgs []*lint.Package, report func(pos token.Pos, format string, args ...any)) {
			runDeadcode(get(pkgs), report)
		},
		Applies: func(pkgs []*lint.Package) bool {
			for _, pkg := range pkgs {
				if pkg.Types.Name() == "main" || pkg.Root {
					return true
				}
			}
			return false
		},
	}
}

// reach is the deadcode worklist state.
type reach struct {
	prog   *Program
	byType map[*types.Package]*lint.Package
	decls  map[types.Object]ast.Node // FuncDecl or TypeSpec of each module declaration
	ifaces map[string][]*types.Interface

	seen    map[types.Object]bool
	linked  map[*lint.Package]bool
	litSeen map[*Node]bool
	work    []reachItem
}

type reachItem struct {
	pkg  *lint.Package
	node ast.Node
}

func runDeadcode(p *Program, report func(pos token.Pos, format string, args ...any)) {
	r := &reach{
		prog:    p,
		byType:  map[*types.Package]*lint.Package{},
		decls:   map[types.Object]ast.Node{},
		ifaces:  map[string][]*types.Interface{},
		seen:    map[types.Object]bool{},
		linked:  map[*lint.Package]bool{},
		litSeen: map[*Node]bool{},
	}
	for _, pkg := range p.Pkgs {
		r.byType[pkg.Types] = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if obj := pkg.Info.Defs[d.Name]; obj != nil {
						r.decls[obj] = d
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							if obj := pkg.Info.Defs[ts.Name]; obj != nil {
								r.decls[obj] = ts
							}
						}
					}
				}
			}
		}
	}
	r.indexInterfaces()

	for _, pkg := range p.Pkgs {
		switch {
		case pkg.Types.Name() == "main":
			r.link(pkg)
			r.mark(pkg.Types.Scope().Lookup("main"))
		case pkg.Root:
			r.link(pkg)
			r.markExportedAPI(pkg)
		}
	}
	for len(r.work) > 0 {
		it := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		ast.Inspect(it.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				r.mark(it.pkg.Info.Uses[id])
			}
			return true
		})
	}

	for _, pkg := range p.Pkgs {
		if !r.linked[pkg] {
			f := pkg.Files[0]
			report(f.Name.Pos(), "package %s: nothing in it is reachable from any main, init or the root package's exported API; delete it", pkg.Path)
			continue
		}
		for _, f := range pkg.Files {
			r.reportFile(pkg, f, report)
		}
	}
}

// reportFile reports the unreached functions, methods and types
// declared in f. A method of an unreached type is covered by the type's
// finding.
func (r *reach) reportFile(pkg *lint.Package, f *ast.File, report func(pos token.Pos, format string, args ...any)) {
	const why = "is unreachable from every main, init and the root package's exported API; delete it"
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
			if !ok || r.seen[obj] || d.Name.Name == "_" || d.Name.Name == "init" {
				continue
			}
			if recv := receiverNamed(obj); recv != nil {
				if !r.seen[recv.Obj()] {
					continue
				}
				report(d.Name.Pos(), "method %s.%s %s", recv.Obj().Name(), obj.Name(), why)
				continue
			}
			report(d.Name.Pos(), "func %s %s", obj.Name(), why)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name == "_" {
					continue
				}
				if obj := pkg.Info.Defs[ts.Name]; obj != nil && !r.seen[obj] {
					report(ts.Name.Pos(), "type %s %s", obj.Name(), why)
				}
			}
		}
	}
}

// markExportedAPI roots the root package's exported names and the
// exported methods of its exported types.
func (r *reach) markExportedAPI(pkg *lint.Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		r.mark(obj)
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					r.mark(m)
				}
			}
		}
	}
}

// link marks pkg as part of the program: its init functions and its
// package-level var and const initializers run, so they are walked.
func (r *reach) link(pkg *lint.Package) {
	if r.linked[pkg] {
		return
	}
	r.linked[pkg] = true
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					r.work = append(r.work, reachItem{pkg, d})
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR || d.Tok == token.CONST {
					r.work = append(r.work, reachItem{pkg, d})
				}
			}
		}
	}
}

// mark records obj as reached. Only module declarations matter: a
// function or type queues its declaration for walking, a function also
// follows its callgraph edges, and a type reaches the methods that
// satisfy an interface.
func (r *reach) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if obj == nil || obj.Pkg() == nil || r.seen[obj] {
		return
	}
	pkg := r.byType[obj.Pkg()]
	decl := r.decls[obj]
	if pkg == nil || (decl == nil && obj.Parent() != obj.Pkg().Scope()) {
		return
	}
	r.seen[obj] = true
	r.link(pkg)
	if decl == nil {
		return // package-level var or const: walked by link
	}
	r.work = append(r.work, reachItem{pkg, decl})
	switch o := obj.(type) {
	case *types.Func:
		r.follow(r.prog.FuncNode(o))
	case *types.TypeName:
		r.markInterfaceMethods(o)
	}
}

// follow marks the callees of n's Program edges, descending through
// function literals, which have no object of their own.
func (r *reach) follow(n *Node) {
	if n == nil {
		return
	}
	for _, e := range n.Out {
		if e.To.Obj != nil {
			r.mark(e.To.Obj)
		} else if !r.litSeen[e.To] {
			r.litSeen[e.To] = true
			r.follow(e.To)
		}
	}
}

// markInterfaceMethods marks every method through which the named type
// tn (or a pointer to it) satisfies a known interface.
func (r *reach) markInterfaceMethods(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	checked := map[*types.Interface]bool{}
	for i := 0; i < mset.Len(); i++ {
		for _, iface := range r.ifaces[mset.At(i).Obj().Name()] {
			if checked[iface] {
				continue
			}
			checked[iface] = true
			if !types.Implements(ptr, iface) {
				continue
			}
			for k := 0; k < iface.NumMethods(); k++ {
				m := iface.Method(k)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					r.mark(sel.Obj())
				}
			}
		}
	}
}

// indexInterfaces collects, by method name, every non-empty interface
// declared at package level in the module or in any package it imports
// transitively, every interface literal written in module code, and the
// predeclared error.
func (r *reach) indexInterfaces() {
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for k := 0; k < iface.NumMethods(); k++ {
			name := iface.Method(k).Name()
			r.ifaces[name] = append(r.ifaces[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())

	visited := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			add(tn.Type())
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range r.prog.Pkgs {
		visit(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t := pkg.Info.TypeOf(it); t != nil {
						add(t)
					}
				}
				return true
			})
		}
	}
}

// receiverNamed returns the named receiver type of method fn, or nil for
// a plain function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
