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

	checkDocTable(t, tbl, "fig5")
}

// TestFig12Claims runs Figure 12 as `protean-bench -run fig12 -seed 1`
// does and checks the measured table's claims and its copy in
// EXPERIMENTS.md.
func TestFig12Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-length Figure 12 grid")
	}
	r, err := Fig12VHIModels(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) != 8 {
		t.Fatalf("%d models, want 8", len(tbl.Rows))
	}
	protean := column(t, tbl, "PROTEAN")
	infless := column(t, tbl, "INFless/Llama")
	molecule := column(t, tbl, "Molecule (beta)")

	// Paper: INFless averages 5.92%; this reproduction's claim is that
	// it collapses to 0.00% on at least 6 of 8 models.
	zero := 0
	gap := 0.0
	for _, row := range tbl.Rows {
		if row[infless].String() == "0.00%" {
			zero++
		}
		gap = max(gap, row[protean].v-row[infless].v)
	}
	if zero < 6 {
		t.Errorf("INFless at 0%% on %d of 8 models; want at least 6", zero)
	}
	// Paper: PROTEAN is best "by as much as ~93%".
	if gap < 0.93 {
		t.Errorf("largest PROTEAN−INFless gap %.2f pp; want at least 93 pp", 100*gap)
	}
	// Paper: Molecule below PROTEAN except on FlauBERT; here PROTEAN is
	// above it on the three heaviest encoders.
	for _, row := range tbl.Rows {
		switch row[0].text {
		case "ALBERT", "FlauBERT", "DeBERTa":
			if row[protean].v <= row[molecule].v {
				t.Errorf("%s: PROTEAN %s not above Molecule %s", row[0].text, row[protean], row[molecule])
			}
		}
	}

	checkDocTable(t, tbl, "fig12")
}

// TestTable4Claims runs Table 4 as `protean-bench -run table4 -seed 1`
// does and checks the measured table's claims and its copy in
// EXPERIMENTS.md.
func TestTable4Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-length Table 4 row")
	}
	r, err := Table4AllStrict(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	col := column(t, tbl, "SLO compliance")
	slo := map[string]Cell{}
	for _, row := range tbl.Rows {
		slo[row[0].String()] = row[col]
	}
	// Paper: PROTEAN 94.19%, best; INFless collapses to 0.42%.
	for name, c := range slo {
		if name != "PROTEAN" && c.v >= slo["PROTEAN"].v {
			t.Errorf("%s at %s, not below PROTEAN's %s", name, c, slo["PROTEAN"])
		}
	}
	if slo["PROTEAN"].v < 0.99 {
		t.Errorf("PROTEAN at %s; want at least 99%%", slo["PROTEAN"])
	}
	if got := slo["INFless/Llama"].String(); got != "0.00%" {
		t.Errorf("INFless at %s; want 0.00%%", got)
	}
	checkDocTable(t, tbl, "table4")
}

// TestFig16Claims runs Figure 16 as `protean-bench -run fig16 -seed 1`
// does and checks the measured table's claims and its copy in
// EXPERIMENTS.md.
func TestFig16Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-length Figure 16 grid")
	}
	r, err := Fig16GPUlet(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	gpulet, protean := column(t, tbl, "GPUlet"), column(t, tbl, "PROTEAN")
	lead := map[string]float64{} // PROTEAN − GPUlet, in pp
	for _, row := range tbl.Rows {
		lead[row[0].String()] = 100 * (row[protean].v - row[gpulet].v)
	}
	if len(lead) != 4 {
		t.Fatalf("%d models, want 4", len(lead))
	}
	// Paper: PROTEAN up to ~16% more compliant. Here the two tie while
	// GPUlet's capped capacity suffices, then GPUlet falls behind.
	for _, m := range []string{"ResNet 50", "DenseNet 121"} {
		if d := lead[m]; d < -0.5 || d > 0.5 {
			t.Errorf("%s: PROTEAN − GPUlet = %+.2f pp; want within 0.5 pp", m, d)
		}
	}
	for m, least := range map[string]float64{"VGG 19": 4, "DPN 92": 80} {
		if lead[m] < least {
			t.Errorf("%s: PROTEAN − GPUlet = %+.2f pp; want at least %+.0f pp", m, lead[m], least)
		}
	}
	checkDocTable(t, tbl, "fig16")
}

// checkDocTable fails when EXPERIMENTS.md does not hold tbl's markdown
// rendering, the table protean-bench prints for `-run id -seed 1
// -format markdown`.
func checkDocTable(t *testing.T, tbl *Table, id string) {
	t.Helper()
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
		t.Errorf("EXPERIMENTS.md's %s table differs from the run; regenerate it with `protean-bench -run %s -seed 1 -format markdown`:\n%s", id, id, want)
	}
}
