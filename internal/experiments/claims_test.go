package experiments

// Claims tests: each checks one of EXPERIMENTS.md's "Shape" claims as a
// predicate over the typed cells of the run the doc's tables come from
// (protean-bench's default parameters, seed 1). A claim the run does not
// support belongs under the doc's "Summary of known deviations", not in
// a loosened predicate here.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// column returns the index of the header named name.
func column(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, h := range tbl.Headers {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s: no %q column in %v", tbl.Title, name, tbl.Headers)
	return -1
}

// TestFig5Claims runs Figure 5 as `protean-bench -run fig5 -seed 1`
// does and checks the measured table's claim and its copy in
// EXPERIMENTS.md.
func TestFig5Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-length Figure 5 grid")
	}
	r, err := Fig5SLOCompliance(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]

	// Paper: "PROTEAN outperforms all schemes"; the claim this
	// reproduction makes is PROTEAN ≥ 97% on at least 11 of 12 models.
	col := column(t, tbl, "PROTEAN")
	above := 0
	for _, row := range tbl.Rows {
		if row[col].v >= 0.97 {
			above++
		}
	}
	if len(tbl.Rows) != 12 || above < 11 {
		t.Errorf("PROTEAN ≥ 97%% on %d of %d models; want at least 11 of 12", above, len(tbl.Rows))
	}

	// The doc's Figure 5 table is this run's markdown rendering.
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(rows, "\n"); !strings.Contains(string(doc), want) {
		t.Errorf("EXPERIMENTS.md's Figure 5 table differs from the run; regenerate it with `protean-bench -run fig5 -seed 1 -format markdown`:\n%s", want)
	}
}
