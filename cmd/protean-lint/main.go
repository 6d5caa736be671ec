// Command protean-lint runs PROTEAN's determinism- and SLO-safety
// static analysis over the repository (see internal/lint and
// internal/lint/flow).
//
//	protean-lint ./...                     # lint the whole module
//	protean-lint ./internal/...            # lint a subtree
//	protean-lint -json ./...               # machine-readable findings
//	protean-lint -disable floateq ./...    # turn rules off
//	protean-lint -enable rngflow ./...     # run only these rules
//	protean-lint -list                     # describe the rules
//	protean-lint -graph ./...              # dump the callgraph and exit
//	protean-lint -baseline old.json ./...  # ignore findings recorded in old.json
//
// The per-package rules walk one package at a time; the flow rules
// (rngflow, hotalloc, poolflow, deadcode) build a callgraph over every
// loaded package and always see the full pattern-selected set. deadcode needs a main or the module's root
// package among them for its roots and skips a subtree such as
// ./internal/...; it is exact only on ./..., where every caller is
// loaded.
//
// Suppress a single finding in source with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// on the offending line or the line directly above it. Exit status: 0
// clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"protean/internal/lint"
	"protean/internal/lint/flow"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("protean-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	enable := fs.String("enable", "", "comma-separated rules to run (default: all)")
	disable := fs.String("disable", "", "comma-separated rules to skip")
	list := fs.Bool("list", false, "list available rules and exit")
	graph := fs.Bool("graph", false, "dump the flow callgraph (nodes, edges, spawn and hotpath markers) and exit")
	baseline := fs.String("baseline", "", "JSON findings file (-json output) to subtract; for staged adoption of new rules")
	dir := fs.String("C", ".", "directory to locate the module from")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	programs := flow.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range programs {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, programs, err := selectAnalyzers(analyzers, programs, *enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "protean-lint:", err)
		return 2
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "protean-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "protean-lint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "protean-lint:", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, loader.Module(), fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "protean-lint:", err)
		return 2
	}
	// A skipped file or test-only package is a diagnostic, not a silent
	// hole in the analysis.
	for _, note := range loader.Notes() {
		fmt.Fprintln(stderr, "protean-lint: note:", note)
	}

	if *graph {
		flow.BuildProgram(pkgs).Dump(stdout)
		return 0
	}

	findings := lint.RunProgram(pkgs, analyzers, programs)
	if *baseline != "" {
		findings, err = subtractBaseline(findings, *baseline)
		if err != nil {
			fmt.Fprintln(stderr, "protean-lint:", err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "protean-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable / -disable across both the
// per-package and the whole-program rule sets. Unknown rule names are
// an error so a typo cannot silently disable nothing.
func selectAnalyzers(all []*lint.Analyzer, programs []*lint.ProgramAnalyzer, enable, disable string) ([]*lint.Analyzer, []*lint.ProgramAnalyzer, error) {
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	for _, a := range programs {
		known[a.Name] = true
	}
	parse := func(csv string) (map[string]bool, error) {
		set := map[string]bool{}
		if csv == "" {
			return set, nil
		}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("unknown rule %q (try -list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, nil, err
	}
	keep := func(name string) bool {
		if len(on) > 0 && !on[name] {
			return false
		}
		return !off[name]
	}
	var outA []*lint.Analyzer
	for _, a := range all {
		if keep(a.Name) {
			outA = append(outA, a)
		}
	}
	var outP []*lint.ProgramAnalyzer
	for _, a := range programs {
		if keep(a.Name) {
			outP = append(outP, a)
		}
	}
	if len(outA)+len(outP) == 0 {
		return nil, nil, fmt.Errorf("no rules selected")
	}
	return outA, outP, nil
}

// subtractBaseline drops findings recorded in a previous -json run: a
// finding is consumed by a baseline entry matching on (rule, file, msg)
// — line numbers shift as files are edited, so they do not participate.
// Each baseline entry absorbs one finding, keeping counts honest when
// the same message appears twice.
func subtractBaseline(findings []lint.Finding, path string) ([]lint.Finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base []lint.Finding
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	budget := map[string]int{}
	for _, b := range base {
		budget[b.Rule+"\x00"+b.File+"\x00"+b.Msg]++
	}
	var out []lint.Finding
	for _, f := range findings {
		key := f.Rule + "\x00" + f.File + "\x00" + f.Msg
		if budget[key] > 0 {
			budget[key]--
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

// filterPackages keeps the packages matching the ./... -style patterns.
// No patterns (or a bare "./...") means every package.
func filterPackages(pkgs []*lint.Package, module string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var out []*lint.Package
	matched := map[string]bool{}
	for _, p := range pkgs {
		for _, pat := range patterns {
			ok, err := patternMatches(module, pat, p.Path)
			if err != nil {
				return nil, err
			}
			if ok {
				matched[pat] = true
				out = append(out, p)
				break
			}
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

func patternMatches(module, pattern, ipath string) (bool, error) {
	p := filepath.ToSlash(pattern)
	if !strings.HasPrefix(p, "./") && p != "." {
		return false, fmt.Errorf("pattern %q must be relative (./...)", pattern)
	}
	p = strings.TrimPrefix(p, "./")
	recursive := false
	if p == "..." {
		return true, nil
	}
	if rest, ok := strings.CutSuffix(p, "/..."); ok {
		recursive = true
		p = rest
	}
	want := module
	if p != "" && p != "." {
		want = module + "/" + strings.Trim(p, "/")
	}
	if recursive {
		return ipath == want || strings.HasPrefix(ipath, want+"/"), nil
	}
	return ipath == want, nil
}
