package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protean/internal/lint"
)

// writeModule lays out a small module with one walltime and one
// globalrand violation under internal/ and a clean cmd/ package whose
// main reaches them, so the module holds no dead code.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmp\n\ngo 1.22\n",
		"internal/clocky/clocky.go": `package clocky

import (
	"math/rand"
	"time"
)

func Jitter() time.Time {
	_ = rand.Float64()
	return time.Now()
}
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"
	"time"

	"example.com/tmp/internal/clocky"
)

func main() {
	fmt.Println(time.Now(), clocky.Jitter())
}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFindsViolations(t *testing.T) {
	root := writeModule(t)
	code, out, _ := runLint(t, "-C", root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{"walltime", "globalrand", "clocky.go"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// cmd/ is allowlisted for walltime: its time.Now must not appear.
	if strings.Contains(out, "main.go") {
		t.Errorf("cmd/ package was flagged:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	root := writeModule(t)
	code, out, _ := runLint(t, "-C", root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Line == 0 || f.Col == 0 || f.File == "" {
			t.Errorf("finding missing position info: %+v", f)
		}
	}
}

func TestDisableRules(t *testing.T) {
	root := writeModule(t)
	code, out, _ := runLint(t, "-C", root, "-disable", "walltime,globalrand", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
}

// TestDeadPackageFails: deadcode runs in the default suite, so a
// package nothing imports fails the lint.
func TestDeadPackageFails(t *testing.T) {
	root := writeModule(t)
	orphan := filepath.Join(root, "internal", "orphan", "orphan.go")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("package orphan\n\nfunc Unused() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runLint(t, "-C", root, "-disable", "walltime,globalrand", "./...")
	if code != 1 || !strings.Contains(out, "deadcode: package example.com/tmp/internal/orphan") {
		t.Fatalf("exit = %d, want 1 with a deadcode finding for the orphan package; output:\n%s", code, out)
	}
}

func TestEnableSubset(t *testing.T) {
	root := writeModule(t)
	code, out, _ := runLint(t, "-C", root, "-enable", "globalrand", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(out, "walltime") {
		t.Errorf("disabled rule still ran:\n%s", out)
	}
}

func TestUnknownRuleRejected(t *testing.T) {
	root := writeModule(t)
	code, _, errOut := runLint(t, "-C", root, "-disable", "nosuchrule", "./...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown rule") {
		t.Errorf("stderr missing diagnosis: %s", errOut)
	}
}

func TestPatternFiltering(t *testing.T) {
	root := writeModule(t)
	code, out, _ := runLint(t, "-C", root, "./cmd/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (cmd/ is clean); output:\n%s", code, out)
	}
	code, _, errOut := runLint(t, "-C", root, "./nosuchdir/...")
	if code != 2 || !strings.Contains(errOut, "matched no packages") {
		t.Fatalf("bad pattern: exit=%d stderr=%s", code, errOut)
	}
}

func TestListRules(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list missing rule %s", a.Name)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runLint(t, "-bogus"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// writeFlowModule lays out a module with one hotalloc and one rngflow
// violation, a looped goroutine spawn, a test-only package, and a
// cgo-gated file — exercising the whole-program rules and the loader
// diagnostics end-to-end through the CLI.
func writeFlowModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmp\n\ngo 1.22\n",
		"internal/eng/eng.go": `package eng

import "math/rand"

//protean:hotpath
func Hot(n int) []int {
	return make([]int, n)
}

var rng = rand.New(rand.NewSource(1))

func Draw(m map[string]int) int {
	t := 0
	for range m {
		t += rng.Intn(2)
	}
	return t
}

var count int

func bump() {
	count++
}

func Spawn() {
	for i := 0; i < 2; i++ {
		go bump()
	}
}
`,
		"internal/eng/cgoer.go": `//go:build cgo

package eng

func notAnalyzed() { undefinedWhenCgoOff() }
`,
		"internal/testish/only_test.go": `package testish

import "testing"

func TestNothing(t *testing.T) {}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestFlowRulesRunByDefault(t *testing.T) {
	root := writeFlowModule(t)
	code, out, errOut := runLint(t, "-C", root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{"hotalloc", "rngflow"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q finding:\n%s", want, out)
		}
	}
	// Loader diagnostics: the test-only package and the cgo-gated file
	// must be announced on stderr, not silently dropped.
	for _, want := range []string{"note:", "testish", "cgoer.go"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
}

func TestEnableFlowRuleSubset(t *testing.T) {
	root := writeFlowModule(t)
	code, out, _ := runLint(t, "-C", root, "-enable", "hotalloc", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "hotalloc") {
		t.Errorf("enabled flow rule did not run:\n%s", out)
	}
	if strings.Contains(out, "rngflow") {
		t.Errorf("disabled flow rule still ran:\n%s", out)
	}
}

func TestGraphDump(t *testing.T) {
	root := writeFlowModule(t)
	code, out, _ := runLint(t, "-C", root, "-graph", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	for _, want := range []string{
		"example.com/tmp/internal/eng.Hot [hotpath]",
		"example.com/tmp/internal/eng.bump [go×N]",
		"-> example.com/tmp/internal/eng.bump [static]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("graph dump missing %q:\n%s", want, out)
		}
	}
}

func TestBaselineSubtraction(t *testing.T) {
	root := writeFlowModule(t)
	code, jsonOut, _ := runLint(t, "-C", root, "-json", "./...")
	if code != 1 {
		t.Fatalf("seed run: exit = %d, want 1", code)
	}
	basePath := filepath.Join(root, "baseline.json")
	if err := os.WriteFile(basePath, []byte(jsonOut), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runLint(t, "-C", root, "-baseline", basePath, "./...")
	if code != 0 {
		t.Fatalf("baselined run: exit = %d, want 0; output:\n%s", code, out)
	}
	// A finding absent from the baseline still fails the run.
	if err := os.WriteFile(basePath, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ = runLint(t, "-C", root, "-baseline", basePath, "./..."); code != 1 {
		t.Fatalf("empty baseline: exit = %d, want 1", code)
	}
	if code, _, errOut := runLint(t, "-C", root, "-baseline", filepath.Join(root, "missing.json"), "./..."); code != 2 || !strings.Contains(errOut, "baseline") {
		t.Fatalf("missing baseline file: exit=%d stderr=%s", code, errOut)
	}
}

func TestListIncludesFlowRules(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range lint.FlowRules() {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing flow rule %s", name)
		}
	}
}

// TestDocsNameRegisteredRules keeps README.md's and DESIGN.md's rule
// catalogues in step with the registries: every registered rule appears
// backticked in both, and no rule listed in testdata/retired_rules.txt
// is named in either.
func TestDocsNameRegisteredRules(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	retired, err := os.ReadFile(filepath.Join("testdata", "retired_rules.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, a := range lint.Analyzers() {
		rules = append(rules, a.Name)
	}
	rules = append(rules, lint.FlowRules()...)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, name := range rules {
			if !strings.Contains(text, "`"+name+"`") {
				t.Errorf("%s does not name rule `%s`", doc, name)
			}
		}
		for _, name := range strings.Fields(string(retired)) {
			if strings.Contains(text, name) {
				t.Errorf("%s still names retired rule %s", doc, name)
			}
		}
	}
}
