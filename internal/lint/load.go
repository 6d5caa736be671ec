package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks the packages of one Go module from
// source. It is also the types.Importer used during checking: imports
// inside the module resolve recursively through the same loader, and
// everything else (the standard library) falls back to the stdlib
// source importer, so no compiled export data is required.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory (contains go.mod)
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package // memoized repo packages by import path
	loading map[string]bool     // cycle guard
	notes   []string            // diagnostics about skipped files/dirs
}

var _ types.Importer = (*Loader)(nil)

// NewLoader returns a loader for the module rooted at root. The module
// path is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		module:  modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// NewFixtureLoader returns a loader rooted at a standalone fixture
// directory with no go.mod, under the synthetic module path
// "fixturemod". Fixtures may only import the standard library and each
// other. Analyzer tests — including the callgraph fixtures in
// lint/flow — load their testdata trees through this.
//
//lint:ignore deadcode the fixture loader of the lint and lint/flow tests (TestFixtures, TestGolden)
func NewFixtureLoader(dir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    dir,
		module:  "fixturemod",
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Module returns the module path ("protean").
func (l *Loader) Module() string { return l.module }

// Notes returns human-readable diagnostics about files and directories
// the loader deliberately did not analyze — files excluded by build
// constraints and directories containing only _test.go files. A skip is
// never silent: cmd/protean-lint prints these to stderr so a package
// dropping out of analysis is visible in CI logs.
func (l *Loader) Notes() []string {
	out := make([]string, len(l.notes))
	copy(out, l.notes)
	return out
}

// LoadAll walks the module tree and loads every package containing
// non-test Go files, returning them sorted by import path. Directories
// holding only test files are recorded as Notes, not silently skipped.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		switch goFileKind(path) {
		case dirHasSources:
			dirs = append(dirs, path)
		case dirTestOnly:
			l.notes = append(l.notes,
				fmt.Sprintf("%s: package has only _test.go files; not analyzed (analyzers exempt tests)", path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		ipath := l.module
		if rel != "." {
			ipath = l.module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(ipath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package by import path.
func (l *Loader) load(ipath string) (*Package, error) {
	if pkg, ok := l.pkgs[ipath]; ok {
		return pkg, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("lint: import cycle through %s", ipath)
	}
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	dir := l.root
	if ipath != l.module {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(ipath, l.module+"/")))
	}
	pkg, err := l.LoadDir(dir, ipath)
	if err != nil {
		return nil, err
	}
	l.pkgs[ipath] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks the non-test Go files of a single
// directory as the package ipath. Files whose build constraints exclude
// the default cgo-free linux context are skipped with a Note, mirroring
// what `go build` would compile. Type-check errors do not abort the
// load: they are collected into Package.TypeErrors, which RunProgram
// reports under the "typecheck" pseudo-rule, so a broken package is a
// diagnostic rather than a silent skip. LoadDir is exported for
// fixture-based analyzer tests, which check standalone directories
// under testdata/.
func (l *Loader) LoadDir(dir, ipath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		if ok, why := fileMatchesBuildContext(path); !ok {
			l.notes = append(l.notes, fmt.Sprintf("%s: skipped (%s)", path, why))
			continue
		}
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []types.Error
	conf := types.Config{
		Importer: l,
		// go build is the compile gate; the linter keeps analyzing in the
		// face of type errors so it can run on in-progress trees — but the
		// errors are kept and surfaced as "typecheck" findings.
		Error: func(err error) {
			if te, ok := err.(types.Error); ok && !te.Soft {
				typeErrs = append(typeErrs, te)
			}
		},
	}
	tpkg, err := conf.Check(ipath, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", ipath, err)
	}
	return &Package{
		Path:       ipath,
		Internal:   isInternalPath(ipath),
		Root:       ipath == l.module,
		Fset:       l.Fset,
		Files:      files,
		Info:       info,
		Types:      tpkg,
		TypeErrors: typeErrs,
	}, nil
}

// fileMatchesBuildContext reports whether the //go:build (or legacy
// // +build) constraints at the top of the file are satisfied by the
// lint build context: the host GOOS/GOARCH, the gc toolchain, and cgo
// disabled — the same context the deterministic simulator is built
// under. Files opting out (e.g. //go:build cgo, //go:build windows on
// linux) are skipped exactly like `go build` would skip them.
func fileMatchesBuildContext(path string) (bool, string) {
	f, err := os.Open(path)
	if err != nil {
		return true, "" // let the parser produce the real error
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) && !constraint.IsPlusBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			continue
		}
		if !expr.Eval(buildTagMatches) {
			return false, fmt.Sprintf("excluded by build constraint %q", line)
		}
	}
	return true, ""
}

// buildTagMatches defines the lint build context: host OS/arch, gc,
// current release tags, cgo off. Unknown tags are false.
func buildTagMatches(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "cgo":
		return false
	}
	// Release tags: go1.N is true for every N up to the toolchain's
	// version; approximate with the prefix, which is right for any
	// release this module (go 1.21+) builds under.
	return strings.HasPrefix(tag, "go1.")
}

func isInternalPath(ipath string) bool {
	return strings.Contains(ipath, "/internal/") || strings.HasSuffix(ipath, "/internal")
}

// dirKind classifies a directory's Go file population.
type dirKind int

const (
	dirNoGo dirKind = iota
	dirHasSources
	dirTestOnly
)

// goFileKind reports whether dir contains analyzable Go sources, only
// _test.go files, or no Go files at all.
func goFileKind(dir string) dirKind {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return dirNoGo
	}
	kind := dirNoGo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			if kind == dirNoGo {
				kind = dirTestOnly
			}
			continue
		}
		return dirHasSources
	}
	return kind
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
