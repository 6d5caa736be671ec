// Package lint implements PROTEAN's determinism- and SLO-safety static
// analysis. The simulator's headline numbers (EXPERIMENTS.md) are only
// credible if every run is bit-for-bit reproducible under a fixed seed;
// that property is easy to break by accident — a stray time.Now, a
// package-level rand call, or a map iteration that feeds a scheduling
// decision. The analyzers in this package lock those invariants in.
//
// Two analyzer shapes exist. Per-package Analyzers walk one type-checked
// package at a time (walltime, globalrand, maporder, floateq,
// errignore). ProgramAnalyzers see every package of the module at once
// and reason over the callgraph — the four flow rules cover RNG
// dataflow, hot-path allocations, freelist ownership and dead code; they
// live in the lint/flow subpackage and are wired in by cmd/protean-lint
// via RunProgram.
//
// The framework is stdlib-only (go/ast, go/parser, go/types, go/token):
// packages are parsed and type-checked from source, analyzers walk the
// typed syntax trees, and findings carry exact positions. Individual
// findings can be suppressed in source with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory, the rule name must be a real analyzer, and the analyzer
// it names must actually report on the covered lines: a malformed,
// unknown-rule, or stale directive is itself reported (rule
// "directive"), so suppressions cannot rot silently as code moves.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
}

// Package is one type-checked package ready for analysis. Test files
// (_test.go) are never loaded: every rule in this package exempts tests.
type Package struct {
	// Path is the import path ("protean/internal/sim").
	Path string
	// Internal reports whether the package sits under internal/ and is
	// therefore subject to the simulation-only rules (walltime, floateq).
	Internal bool
	// Root reports whether this is the module's root package, whose
	// import path is the module path itself.
	Root  bool
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
	// TypeErrors holds the type-checker diagnostics collected while
	// loading the package. The linter keeps analyzing a package that
	// fails to type-check (go build is the compile gate), but the errors
	// surface as "typecheck" findings so a broken package can never slip
	// through analysis silently.
	TypeErrors []types.Error
}

// An Analyzer checks one invariant within a single package. Run reports
// findings through report; the framework attaches the rule name,
// resolves positions, and applies //lint:ignore suppressions.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkg *Package, report func(pos token.Pos, format string, args ...any))
}

// A ProgramAnalyzer checks a whole-program invariant: its Run sees every
// loaded package at once, so it can build callgraphs and track dataflow
// across package boundaries. All packages share one token.FileSet, so a
// token.Pos from any of them resolves through pkgs[0].Fset. The
// callgraph-aware analyzers in lint/flow have this shape.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(pkgs []*Package, report func(pos token.Pos, format string, args ...any))
	// Applies, when set, reports whether the analyzer can judge this
	// package set at all (deadcode needs its reachability roots). An
	// analyzer that does not apply is skipped like a disabled one, so
	// its suppressions are not reported as stale.
	Applies func(pkgs []*Package) bool
}

// Analyzers returns the full ordered per-package rule set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer(),
		GlobalrandAnalyzer(),
		MaporderAnalyzer(),
		FloateqAnalyzer(),
		ErrignoreAnalyzer(),
	}
}

// FlowRules names the callgraph-aware ProgramAnalyzers implemented in
// the lint/flow subpackage. The list is declared here — not discovered —
// so directive validation recognizes their suppressions even in runs
// that load only the per-package analyzers (lint cannot import flow:
// flow imports lint). flow's tests assert the two lists stay in sync.
func FlowRules() []string {
	return []string{"deadcode", "hotalloc", "poolflow", "rngflow"}
}

// pseudoRules are rule names the framework itself reports under; they
// are legal in //lint:ignore directives like any analyzer name.
var pseudoRules = []string{"directive", "typecheck"}

// RunProgram executes the per-package analyzers and the whole-program
// analyzers over the packages and returns the surviving (unsuppressed)
// findings sorted by (file, line, rule, column) — a total order
// independent of package walk order, so -json output diffs cleanly in
// CI. Directive problems (malformed, unknown rule, stale suppression)
// and type-check failures are reported under the pseudo-rules
// "directive" and "typecheck".
func RunProgram(pkgs []*Package, analyzers []*Analyzer, programs []*ProgramAnalyzer) []Finding {
	var out []Finding

	// A package that fails type-checking is a diagnostic, not a silent
	// best-effort analysis: surface the first few errors with positions.
	const maxTypeErrors = 3
	for _, pkg := range pkgs {
		for i, te := range pkg.TypeErrors {
			if i >= maxTypeErrors {
				out = append(out, Finding{
					Rule: "typecheck",
					File: pkg.Fset.Position(pkg.Files[0].Pos()).Filename,
					Line: 1,
					Col:  1,
					Msg:  fmt.Sprintf("%s: %d more type errors not shown", pkg.Path, len(pkg.TypeErrors)-maxTypeErrors),
				})
				break
			}
			p := te.Fset.Position(te.Pos)
			out = append(out, Finding{
				Rule: "typecheck",
				File: p.Filename,
				Line: p.Line,
				Col:  p.Column,
				Msg:  fmt.Sprintf("package %s does not type-check: %s", pkg.Path, te.Msg),
			})
		}
	}

	dirs, bad := collectDirectives(pkgs)
	out = append(out, bad...)

	enabled := map[string]bool{}
	reporter := func(pkg *Package, name string) func(pos token.Pos, format string, args ...any) {
		return func(pos token.Pos, format string, args ...any) {
			p := pkg.Fset.Position(pos)
			if dirs.suppressed(name, p) {
				return
			}
			out = append(out, Finding{
				Rule: name,
				File: p.Filename,
				Line: p.Line,
				Col:  p.Column,
				Msg:  fmt.Sprintf(format, args...),
			})
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			enabled[a.Name] = true
			a.Run(pkg, reporter(pkg, a.Name))
		}
	}
	if len(pkgs) > 0 {
		for _, pa := range programs {
			if pa.Applies != nil && !pa.Applies(pkgs) {
				continue
			}
			enabled[pa.Name] = true
			// Program analyzers report positions from the shared FileSet;
			// attribute through the first package for position resolution.
			pa.Run(pkgs, reporter(pkgs[0], pa.Name))
		}
	}

	out = append(out, dirs.problems(enabled)...)

	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// directive is one rule named by one //lint:ignore comment, tracking
// whether it suppressed anything this run.
type directive struct {
	file string
	line int
	col  int
	rule string
	used bool
}

// directiveSet indexes directives by file and line for suppression
// lookups, keeping collection order for deterministic problem reports.
type directiveSet struct {
	byLoc map[string]map[int][]*directive
	all   []*directive
}

// suppressed reports whether rule is ignored at position p, marking the
// matching directive used. A directive covers its own line and the line
// below it, so both trailing ("stmt //lint:ignore ...") and preceding
// placements work.
func (d *directiveSet) suppressed(rule string, p token.Position) bool {
	lines := d.byLoc[p.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range []int{p.Line, p.Line - 1} {
		for _, e := range lines[ln] {
			if e.rule == rule {
				e.used = true
				return true
			}
		}
	}
	return false
}

// problems reports directive hygiene findings after a run: directives
// naming a rule no analyzer has (typo or removed analyzer), and
// directives whose rule ran but reported nothing on the covered lines
// (stale suppressions left behind when the offending code moved or was
// fixed). Rules that exist but were not enabled this run are skipped —
// a -enable subset must not flag every other rule's suppressions.
func (d *directiveSet) problems(enabled map[string]bool) []Finding {
	known := map[string]bool{}
	for name := range enabled {
		known[name] = true
	}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, name := range FlowRules() {
		known[name] = true
	}
	for _, name := range pseudoRules {
		known[name] = true
	}
	var out []Finding
	for _, e := range d.all {
		switch {
		case !known[e.rule]:
			out = append(out, Finding{
				Rule: "directive",
				File: e.file,
				Line: e.line,
				Col:  e.col,
				Msg:  fmt.Sprintf("//lint:ignore names unknown analyzer %q (typo, or the analyzer was removed)", e.rule),
			})
		case enabled[e.rule] && !e.used:
			out = append(out, Finding{
				Rule: "directive",
				File: e.file,
				Line: e.line,
				Col:  e.col,
				Msg:  fmt.Sprintf("stale //lint:ignore: %s reports nothing on this line; delete the suppression", e.rule),
			})
		}
	}
	return out
}

const directivePrefix = "//lint:ignore"

// collectDirectives scans every package's comments for //lint:ignore
// directives. Malformed directives (missing rule or reason) come back as
// findings so they cannot silently suppress nothing.
func collectDirectives(pkgs []*Package) (*directiveSet, []Finding) {
	dirs := &directiveSet{byLoc: map[string]map[int][]*directive{}}
	var bad []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					p := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Rule: "directive",
							File: p.Filename,
							Line: p.Line,
							Col:  p.Column,
							Msg:  "malformed //lint:ignore directive: want \"//lint:ignore <rule> <reason>\"",
						})
						continue
					}
					m := dirs.byLoc[p.Filename]
					if m == nil {
						m = map[int][]*directive{}
						dirs.byLoc[p.Filename] = m
					}
					for _, rule := range strings.Split(fields[0], ",") {
						if rule == "" {
							continue
						}
						e := &directive{file: p.Filename, line: p.Line, col: p.Column, rule: rule}
						m[p.Line] = append(m[p.Line], e)
						dirs.all = append(dirs.all, e)
					}
				}
			}
		}
	}
	return dirs, bad
}

// pkgFunc reports whether sel is a selector of function name on the
// package with import path pkgPath (e.g. time.Now), resolved through the
// type checker so local variables shadowing the package name don't match.
func pkgFunc(info *types.Info, sel *ast.SelectorExpr, pkgPath string) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}
