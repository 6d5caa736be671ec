package experiments

import (
	"math"
	"strings"
	"testing"

	"protean/internal/core"
	"protean/internal/model"
)

func quickParams() Params {
	return Params{Quick: true, Duration: 15, Warmup: 5, Nodes: 4, Seed: 3}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{
		"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "table4", "table5", "fig15",
		"fig16", "fig17", "table3", "stats", "coldstarts", "knee", "hopper",
	}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Run == nil {
			t.Errorf("registry entry %s incomplete", id)
		}
	}
	if _, ok := ByID("fig5"); !ok {
		t.Error("ByID(fig5) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "Example",
		Headers: []string{"a", "b"},
		Rows:    [][]Cell{{text("1"), count(2)}, {text("3"), count(4)}},
		Notes:   []string{"caveat"},
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Example", "a", "4", "note: caveat"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable3StaticRows(t *testing.T) {
	report, err := Table3SpotPricing(quickParams())
	if err != nil {
		t.Fatalf("Table3SpotPricing: %v", err)
	}
	if len(report.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(report.Tables))
	}
	static := report.Tables[0]
	if len(static.Rows) != 3 {
		t.Errorf("pricing rows = %d, want 3", len(static.Rows))
	}
	// AWS savings ≈ 70%.
	if s := static.Rows[0][3]; s.kind != kindPercent || s.v < 0.69 || s.v >= 0.71 {
		t.Errorf("AWS savings = %s, want ≈70%%", s)
	}
}

func TestFig3QuickProducesNormalizedFBRs(t *testing.T) {
	report, err := Fig3FBR(quickParams())
	if err != nil {
		t.Fatalf("Fig3FBR: %v", err)
	}
	rows := report.Tables[0].Rows
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted ascending by normalized FBR; the last row is the maximum,
	// which normalizes to 1.
	last := rows[len(rows)-1]
	if last[2].kind != kindFixed || math.Abs(last[2].v-1) > 5e-4 {
		t.Errorf("max normalized FBR = %s, want 1.000", last[2])
	}
}

func TestFig13QuickShape(t *testing.T) {
	report, err := Fig13GenerativeLLMs(quickParams())
	if err != nil {
		t.Fatalf("Fig13GenerativeLLMs: %v", err)
	}
	rows := report.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want GPT-1 and GPT-2", len(rows))
	}
	for _, row := range rows {
		if len(row) != len(report.Tables[0].Headers) {
			t.Errorf("row %v width mismatch", row)
		}
	}
}

func TestRunScenarioValidation(t *testing.T) {
	p := quickParams()
	if _, err := RunScenario(p, Scenario{}, nil); err == nil {
		t.Error("scenario without policy accepted")
	}
	if _, err := RunScenario(p, Scenario{Policy: core.NewMoleculeBeta(), StrictFrac: 0.5}, nil); err == nil {
		t.Error("scenario without strict model accepted")
	}
}

func TestRunScenarioDefaultsPoolAndRate(t *testing.T) {
	p := quickParams()
	res, err := RunScenario(p, Scenario{
		Strict: model.MustByName("ShuffleNet V2"),
		Policy: core.NewProtean(core.ProteanConfig{}),
	}, nil)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Recorder.Requests() == 0 {
		t.Error("no requests recorded")
	}
	// BE requests must exist (default 50/50 mix) and come from the
	// opposite (HI) class.
	if res.Recorder.BestEffort().Requests() == 0 {
		t.Error("no best-effort requests with default mix")
	}
}

// ablationChoices names the ablations report's rows, in order.
var ablationChoices = []string{"reordering", "reconfig", "placement", "keepalive", "predictor"}

// ablationRows runs the ablations report and returns its rows.
func ablationRows(t *testing.T, p Params) [][]Cell {
	t.Helper()
	report, err := Ablations(p)
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	rows := report.Tables[0].Rows
	if len(rows) != len(ablationChoices) {
		t.Fatalf("ablation rows = %d, want %d", len(rows), len(ablationChoices))
	}
	return rows
}

func TestAblationsRun(t *testing.T) {
	rows := ablationRows(t, quickParams())
	for i, name := range ablationChoices {
		t.Run(name, func(t *testing.T) {
			row := rows[i]
			if row[0].kind != kindText || row[1].kind != kindText {
				t.Errorf("row %v: design choice and workload must be text", row)
			}
			for _, c := range row[2:4] {
				if c.kind != kindPercent || c.v < 0 || c.v > 1 {
					t.Errorf("compliance %s out of range in %v", c, row)
				}
			}
			for _, c := range row[4:] {
				if c.kind != kindMillis || c.v <= 0 {
					t.Errorf("strict P99 %s not a positive latency in %v", c, row)
				}
			}
		})
	}
}

// TestAblationPlacementHelps: the η placement model is a first-order
// effect, so naive largest-slice-always placement must lose on an HI
// workload; so must immediate scale-down (TestAblationKeepAliveHelps).
func TestAblationPlacementHelps(t *testing.T) {
	row := ablationRows(t, Params{Quick: true, Duration: 20, Warmup: 6})[2]
	if with, without := row[2], row[3]; with.v <= without.v {
		t.Errorf("placement ablation: with %s <= without %s", with, without)
	}
}

func TestAblationKeepAliveHelps(t *testing.T) {
	row := ablationRows(t, Params{Quick: true, Duration: 20, Warmup: 6})[3]
	if with, without := row[2], row[3]; with.v <= without.v {
		t.Errorf("keep-alive ablation: with %s <= without %s", with, without)
	}
}

func TestColdStartsClaim(t *testing.T) {
	report, err := ColdStarts(Params{Quick: true, Duration: 25, Warmup: 5, Nodes: 2, Seed: 5})
	if err != nil {
		t.Fatalf("ColdStarts: %v", err)
	}
	rows := report.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Delayed termination must incur strictly fewer cold starts.
	delayed, immediate := rows[0][1], rows[1][1]
	if delayed.kind != kindCount || immediate.kind != kindCount {
		t.Fatalf("cold-start cells %v, %v are not counts", delayed, immediate)
	}
	if delayed.v >= immediate.v {
		t.Errorf("delayed termination cold starts %s >= immediate %s", delayed, immediate)
	}
}

func TestKneeSweepQuick(t *testing.T) {
	report, err := KneeSweep(quickParams())
	if err != nil {
		t.Fatalf("KneeSweep: %v", err)
	}
	if len(report.Tables[0].Rows) != 2 {
		t.Errorf("quick sweep rows = %d, want 2", len(report.Tables[0].Rows))
	}
}
