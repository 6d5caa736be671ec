package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureLoader returns a loader rooted at a standalone fixture
// directory (no go.mod; fixtures only import the standard library).
func fixtureLoader(dir string) *Loader {
	return NewFixtureLoader(dir)
}

// wantLines scans fixture sources for `want:<rule>` markers and returns
// the expected "file:line" set for that rule.
func wantLines(t *testing.T, dir, rule string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "want:"+rule) {
				want[fmt.Sprintf("%s:%d", path, i+1)] = true
			}
		}
	}
	return want
}

func runFixture(t *testing.T, rule, ipath string, analyzer *Analyzer) []Finding {
	t.Helper()
	dir := filepath.Join("testdata", rule)
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, ipath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	return RunProgram([]*Package{pkg}, []*Analyzer{analyzer}, nil)
}

func checkFixture(t *testing.T, rule, ipath string, analyzer *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", rule)
	findings := runFixture(t, rule, ipath, analyzer)
	got := map[string]bool{}
	for _, f := range findings {
		if f.Rule != rule {
			t.Errorf("unexpected rule %q in finding %s", f.Rule, f)
			continue
		}
		got[fmt.Sprintf("%s:%d", f.File, f.Line)] = true
	}
	want := wantLines(t, dir, rule)
	for loc := range want {
		if !got[loc] {
			t.Errorf("%s: expected a %s finding, got none", loc, rule)
		}
	}
	for loc := range got {
		if !want[loc] {
			t.Errorf("%s: unexpected %s finding", loc, rule)
		}
	}
}

func TestWalltimeFixture(t *testing.T) {
	checkFixture(t, "walltime", "fixturemod/internal/walltime", WalltimeAnalyzer())
}

func TestWalltimeSkipsNonInternal(t *testing.T) {
	// The same fixture loaded as a cmd-style package must be silent:
	// wall-clock access is only forbidden under internal/. The fixture's
	// own suppressions correctly surface as stale "directive" findings
	// here (the rule fires nothing outside internal/), so filter to the
	// walltime rule itself.
	for _, f := range runFixture(t, "walltime", "fixturemod/cmd/walltime", WalltimeAnalyzer()) {
		if f.Rule == "walltime" {
			t.Errorf("walltime fired outside internal/: %v", f)
		}
	}
}

func TestGlobalrandFixture(t *testing.T) {
	checkFixture(t, "globalrand", "fixturemod/globalrand", GlobalrandAnalyzer())
}

func TestMaporderFixture(t *testing.T) {
	checkFixture(t, "maporder", "fixturemod/maporder", MaporderAnalyzer())
}

func TestFloateqFixture(t *testing.T) {
	checkFixture(t, "floateq", "fixturemod/internal/floateq", FloateqAnalyzer())
}

// TestFloateqProbabilityOutsideInternal: outside internal/ the rule
// narrows to probability/rate/fraction-named operands — chaos knobs
// compared exactly in cmd/ code are flagged, plain floats are not.
func TestFloateqProbabilityOutsideInternal(t *testing.T) {
	dir := filepath.Join("testdata", "floateqcmd")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/cmd/floateqcmd")
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	findings := RunProgram([]*Package{pkg}, []*Analyzer{FloateqAnalyzer()}, nil)
	got := map[string]bool{}
	for _, f := range findings {
		if f.Rule != "floateq" {
			t.Errorf("unexpected rule %q in finding %s", f.Rule, f)
			continue
		}
		got[fmt.Sprintf("%s:%d", f.File, f.Line)] = true
	}
	want := wantLines(t, dir, "floateq")
	for loc := range want {
		if !got[loc] {
			t.Errorf("%s: expected a floateq finding, got none", loc)
		}
	}
	for loc := range got {
		if !want[loc] {
			t.Errorf("%s: unexpected floateq finding", loc)
		}
	}
}

func TestErrignoreFixture(t *testing.T) {
	checkFixture(t, "errignore", "fixturemod/errignore", ErrignoreAnalyzer())
}

func TestMalformedDirective(t *testing.T) {
	// A directive with no reason must be reported, never silently
	// honored: run with zero analyzers and expect exactly the
	// "directive" finding.
	findings := runFixture(t, "directive", "fixturemod/directive", &Analyzer{
		Name: "noop",
		Run:  func(*Package, func(token.Pos, string, ...any)) {},
	})
	if len(findings) != 1 || findings[0].Rule != "directive" {
		t.Fatalf("want exactly one directive finding, got %v", findings)
	}
	if !strings.Contains(findings[0].Msg, "malformed") {
		t.Fatalf("unexpected message: %s", findings[0].Msg)
	}
}

// TestFindingOrder pins the (file, line, rule, col) total order -json
// relies on: CI diffs two runs' JSON byte-for-byte, so the order must
// not depend on analyzer registration or package walk order.
func TestFindingOrder(t *testing.T) {
	dir := filepath.Join("testdata", "maporder")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/maporder")
	if err != nil {
		t.Fatal(err)
	}
	// Two synthetic analyzers reporting at identical positions in
	// reverse name order must come back name-sorted within a line.
	mk := func(name string) *Analyzer {
		return &Analyzer{Name: name, Run: func(p *Package, report func(token.Pos, string, ...any)) {
			report(p.Files[0].Pos(), "from %s", name)
		}}
	}
	findings := RunProgram([]*Package{pkg}, []*Analyzer{mk("zzz"), mk("aaa")}, nil)
	var rules []string
	for _, f := range findings {
		if f.Rule == "aaa" || f.Rule == "zzz" {
			rules = append(rules, f.Rule)
		}
	}
	if len(rules) != 2 || rules[0] != "aaa" || rules[1] != "zzz" {
		t.Fatalf("same-position findings not sorted by rule: %v", rules)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings not sorted by (file, line): %v before %v", a, b)
		}
	}
}

// TestUnknownRuleDirective: an ignore naming an analyzer that does not
// exist anywhere (typo or removed rule) is itself a finding.
func TestUnknownRuleDirective(t *testing.T) {
	dir := filepath.Join("testdata", "staledir")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/staledir")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunProgram([]*Package{pkg}, []*Analyzer{MaporderAnalyzer()}, nil)
	var unknown, stale int
	for _, f := range findings {
		if f.Rule != "directive" {
			t.Errorf("unexpected rule %q: %s", f.Rule, f)
			continue
		}
		switch {
		case strings.Contains(f.Msg, "unknown analyzer"):
			unknown++
		case strings.Contains(f.Msg, "stale"):
			stale++
		}
	}
	if unknown != 1 {
		t.Errorf("want 1 unknown-analyzer finding, got %d: %v", unknown, findings)
	}
	if stale != 1 {
		t.Errorf("want 1 stale-suppression finding, got %d: %v", stale, findings)
	}
}

// TestStaleCheckRespectsEnabledSet: a suppression for a real rule that
// simply was not enabled in this run must not be called stale — a
// -enable subset would otherwise flag every other rule's suppressions.
func TestStaleCheckRespectsEnabledSet(t *testing.T) {
	dir := filepath.Join("testdata", "staledir")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/staledir")
	if err != nil {
		t.Fatal(err)
	}
	// walltime is a real analyzer but not enabled here: its (unused)
	// suppression in the fixture must not be reported.
	findings := RunProgram([]*Package{pkg}, []*Analyzer{FloateqAnalyzer()}, nil)
	for _, f := range findings {
		if strings.Contains(f.Msg, "walltime") {
			t.Errorf("suppression for disabled rule reported: %s", f)
		}
	}
}

// TestStaleCheckSkipsInapplicableProgramAnalyzer: a program analyzer
// whose Applies rejects the package set does not run, so its
// suppressions are not stale; once it applies, an unused one is.
func TestStaleCheckSkipsInapplicableProgramAnalyzer(t *testing.T) {
	dir := filepath.Join("testdata", "staledir")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/staledir")
	if err != nil {
		t.Fatal(err)
	}
	for _, applies := range []bool{false, true} {
		pa := &ProgramAnalyzer{
			Name:    "walltime",
			Run:     func([]*Package, func(token.Pos, string, ...any)) {},
			Applies: func([]*Package) bool { return applies },
		}
		stale := 0
		for _, f := range RunProgram([]*Package{pkg}, nil, []*ProgramAnalyzer{pa}) {
			if strings.Contains(f.Msg, "stale") && strings.Contains(f.Msg, "walltime") {
				stale++
			}
		}
		if want := map[bool]int{false: 0, true: 1}[applies]; stale != want {
			t.Errorf("applies=%v: %d stale walltime suppressions, want %d", applies, stale, want)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "walltime", File: "a.go", Line: 3, Col: 7, Msg: "boom"}
	if got, want := f.String(), "a.go:3:7: walltime: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestFindModuleRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("FindModuleRoot returned %s without go.mod: %v", root, err)
	}
}

// TestRepoIsLintClean is the self-check the CI gate relies on: the
// repository's own tree must produce zero findings across every
// analyzer. Any new nondeterminism lands here first.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	paths := make([]string, len(pkgs))
	for i, p := range pkgs {
		paths[i] = p.Path
	}
	if !sort.StringsAreSorted(paths) {
		t.Errorf("packages not sorted: %v", paths)
	}
	findings := RunProgram(pkgs, Analyzers(), nil)
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}
