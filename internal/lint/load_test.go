package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderSkipsBuildConstrainedFiles: a file gated behind //go:build
// cgo must be excluded from the package (its type errors would show up
// otherwise) and recorded as a loader note, never silently dropped.
func TestLoaderSkipsBuildConstrainedFiles(t *testing.T) {
	dir := filepath.Join("testdata", "loader", "tagged")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/tagged")
	if err != nil {
		t.Fatalf("load tagged fixture: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("want 1 file after tag filtering, got %d", len(pkg.Files))
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("cgo-gated file leaked into the package: %v", pkg.TypeErrors)
	}
	notes := l.Notes()
	found := false
	for _, n := range notes {
		if strings.Contains(n, "cgoonly.go") && strings.Contains(n, "build constraint") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no note recorded for the skipped file; notes = %v", notes)
	}
}

// TestLoaderNotesTestOnlyPackage: LoadAll over a tree with a _test.go-
// only directory must produce a diagnostic note for it.
func TestLoaderNotesTestOnlyPackage(t *testing.T) {
	root := filepath.Join("testdata", "loader")
	l := fixtureLoader(root)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "/testonly") {
			t.Fatalf("test-only directory loaded as a package: %s", p.Path)
		}
	}
	found := false
	for _, n := range l.Notes() {
		if strings.Contains(n, "testonly") && strings.Contains(n, "_test.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no note for the test-only package; notes = %v", l.Notes())
	}
}

// TestLoaderSurfacesTypeErrors: a package that fails type-checking
// loads with TypeErrors populated, and Run reports them under the
// "typecheck" pseudo-rule — a diagnostic, not a silent skip.
func TestLoaderSurfacesTypeErrors(t *testing.T) {
	dir := filepath.Join("testdata", "loader", "broken")
	l := fixtureLoader(dir)
	pkg, err := l.LoadDir(dir, "fixturemod/broken")
	if err != nil {
		t.Fatalf("LoadDir must not fail on type errors: %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected TypeErrors for the broken package")
	}
	findings := RunProgram([]*Package{pkg}, nil, nil)
	got := 0
	for _, f := range findings {
		if f.Rule == "typecheck" {
			got++
			if !strings.Contains(f.Msg, "fixturemod/broken") {
				t.Errorf("typecheck finding missing package path: %s", f)
			}
			if f.Line == 0 {
				t.Errorf("typecheck finding missing position: %s", f)
			}
		}
	}
	if got == 0 {
		t.Fatalf("no typecheck findings; findings = %v", findings)
	}
}
