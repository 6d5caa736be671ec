package experiments

import (
	"fmt"
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
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
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
	if !strings.HasPrefix(static.Rows[0][3], "69.") && !strings.HasPrefix(static.Rows[0][3], "70.") {
		t.Errorf("AWS savings = %s, want ≈70%%", static.Rows[0][3])
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
	// Sorted ascending by normalized FBR; last row must be 1.000.
	last := rows[len(rows)-1]
	if last[2] != "1.000" {
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

func TestAblationsRun(t *testing.T) {
	p := quickParams()
	for _, tc := range []struct {
		name string
		run  func(Params) (AblationResult, error)
	}{
		{"reordering", AblationReordering},
		{"reconfig", AblationReconfig},
		{"placement", AblationPlacement},
		{"keepalive", AblationKeepAlive},
		{"predictor", AblationPredictor},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(p)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.With < 0 || res.With > 1 || res.Without < 0 || res.Without > 1 {
				t.Errorf("compliance out of range: %+v", res)
			}
			if res.String() == "" {
				t.Error("empty ablation string")
			}
		})
	}
}

func TestAblationPlacementHelps(t *testing.T) {
	// The η placement model is a first-order effect: naive
	// largest-slice-always placement must lose badly on an HI workload.
	res, err := AblationPlacement(Params{Quick: true, Duration: 20, Warmup: 6})
	if err != nil {
		t.Fatalf("AblationPlacement: %v", err)
	}
	if res.With <= res.Without {
		t.Errorf("placement ablation: with %.3f <= without %.3f", res.With, res.Without)
	}
}

func TestAblationKeepAliveHelps(t *testing.T) {
	res, err := AblationKeepAlive(Params{Quick: true, Duration: 20, Warmup: 6})
	if err != nil {
		t.Fatalf("AblationKeepAlive: %v", err)
	}
	if res.With <= res.Without {
		t.Errorf("keep-alive ablation: with %.3f <= without %.3f", res.With, res.Without)
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
	var delayed, immediate int
	if _, err := fmt.Sscanf(rows[0][1], "%d", &delayed); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := fmt.Sscanf(rows[1][1], "%d", &immediate); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if delayed >= immediate {
		t.Errorf("delayed termination cold starts %d >= immediate %d", delayed, immediate)
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
