package flow_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"protean/internal/lint"
	"protean/internal/lint/flow"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// loadFixture loads the multi-package fixture tree under testdata/<name>
// through the same loader cmd/protean-lint uses.
func loadFixture(t *testing.T, name string) []*lint.Package {
	t.Helper()
	loader := lint.NewFixtureLoader(filepath.Join("testdata", name))
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s package %s does not type-check: %v", name, pkg.Path, pkg.TypeErrors[0])
		}
	}
	return pkgs
}

func analyzerNamed(t *testing.T, name string) *lint.ProgramAnalyzer {
	t.Helper()
	for _, a := range flow.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no flow analyzer named %q", name)
	return nil
}

// wantMarkers scans every fixture file under dir for "// want:<rule>"
// line markers and returns the expected "file:line" set.
func wantMarkers(t *testing.T, dir, rule string) map[string]bool {
	t.Helper()
	marker := "// want:" + rule
	want := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, marker) {
				want[fmt.Sprintf("%s:%d", filepath.ToSlash(path), i+1)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan %s: %v", dir, err)
	}
	return want
}

// TestFixtures runs each flow analyzer alone over its fixture tree and
// compares the flagged (file, line) set against the want markers. Lines
// with several findings (e.g. a goroutine draw that also trips the
// alias rule) carry a single marker: the comparison is by line, not by
// finding count.
func TestFixtures(t *testing.T) {
	for _, rule := range lint.FlowRules() {
		t.Run(rule, func(t *testing.T) {
			dir := filepath.Join("testdata", rule)
			pkgs := loadFixture(t, rule)
			findings := lint.RunProgram(pkgs, nil, []*lint.ProgramAnalyzer{analyzerNamed(t, rule)})

			got := map[string]bool{}
			for _, f := range findings {
				if f.Rule != rule {
					t.Errorf("unexpected %s finding in %s fixture: %s", f.Rule, rule, f)
					continue
				}
				got[fmt.Sprintf("%s:%d", filepath.ToSlash(f.File), f.Line)] = true
			}
			want := wantMarkers(t, dir, rule)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers", dir)
			}
			for loc := range want {
				if !got[loc] {
					t.Errorf("%s: marked // want:%s but analyzer reported nothing", loc, rule)
				}
			}
			for _, f := range findings {
				loc := fmt.Sprintf("%s:%d", filepath.ToSlash(f.File), f.Line)
				if !want[loc] {
					t.Errorf("unwanted finding: %s", f)
				}
			}
		})
	}
}

// TestFlowRuleNamesMatch pins lint.FlowRules() — declared in lint so
// directive validation knows the names without importing this package —
// to the analyzers actually implemented here.
func TestFlowRuleNamesMatch(t *testing.T) {
	var got []string
	for _, a := range flow.Analyzers() {
		got = append(got, a.Name)
	}
	sort.Strings(got)
	want := append([]string(nil), lint.FlowRules()...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("flow.Analyzers() = %v, lint.FlowRules() = %v; keep the lists in sync", got, want)
	}
}

// TestGolden renders every finding of the full flow suite over the
// golden fixture and compares byte-for-byte with golden.txt. Run with
// -update to regenerate after an intentional change to positions or
// message wording.
func TestGolden(t *testing.T) {
	checkGolden(t, "golden", flow.Analyzers())
}

// TestDeadcodeGolden pins deadcode's full output over its fixture: the
// seeded unreachable function, method, type and package, and nothing
// reached through a method value, callback, library interface or
// interface assertion.
func TestDeadcodeGolden(t *testing.T) {
	checkGolden(t, "deadcode", []*lint.ProgramAnalyzer{analyzerNamed(t, "deadcode")})
}

// checkGolden compares the rendered findings of analyzers over
// testdata/<fixture> with testdata/<fixture>/golden.txt.
func checkGolden(t *testing.T, fixture string, analyzers []*lint.ProgramAnalyzer) {
	t.Helper()
	pkgs := loadFixture(t, fixture)
	findings := lint.RunProgram(pkgs, nil, analyzers)
	var b strings.Builder
	for _, f := range findings {
		f.File = filepath.ToSlash(f.File)
		fmt.Fprintf(&b, "%s\n", f)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", fixture, "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden output drifted.\n--- got ---\n%s--- want ---\n%s(run `go test ./internal/lint/flow -run %s -update` if the change is intentional)", got, want, t.Name())
	}
}

// loadRepo loads the real module the way cmd/protean-lint does.
func loadRepo(t *testing.T) []*lint.Package {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRepoIsFlowClean is the acceptance gate for this suite: the whole
// module, under all per-package rules plus all six callgraph analyzers,
// reports nothing — every live finding is either fixed or carries a
// reasoned suppression, and no suppression is stale.
func TestRepoIsFlowClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings := lint.RunProgram(loadRepo(t), lint.Analyzers(), flow.Analyzers())
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestHotpathAnnotationsPinned keeps the //protean:hotpath markers on
// the engine's measured inner loops: the gpu rebalance/slowdown path,
// the GPU's read-only views and the sim timer path. Dropping an
// annotation would silently shrink hotalloc's audited set, so the exact
// node set is pinned here.
func TestHotpathAnnotationsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	p := flow.BuildProgram(loadRepo(t))
	hot := map[string]bool{}
	for _, n := range p.Nodes {
		if n.Hot {
			hot[n.Name] = true
		}
	}
	for _, name := range []string{
		"protean/internal/gpu.(*Slice).rebalance",
		"protean/internal/gpu.(*Slice).slowdownFor",
		"protean/internal/gpu.(*Slice).Slowdown",
		"protean/internal/gpu.(*GPU).Slices",
		"protean/internal/gpu.(*GPU).SlicesAscending",
		"protean/internal/gpu.(*GPU).Geometry",
		"protean/internal/sim.(*Timer).Reschedule",
		"protean/internal/sim.(*Timer).Cancel",
		"protean/internal/cluster.(*node).serviceJitter",
	} {
		if !hot[name] {
			t.Errorf("%s is not annotated //protean:hotpath (hot set: %d nodes)", name, len(hot))
		}
	}
}
