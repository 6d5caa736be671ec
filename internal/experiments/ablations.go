package experiments

import (
	"protean/internal/autoscale"
	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/reconfig"
)

// Ablations compares PROTEAN with and without each design choice
// DESIGN.md calls out, each on the workload that exposes it, and
// reports SLO compliance and strict P99 for both sides. The two sides
// of a choice replay one trace and differ only in the policy or scaler
// under test.
func Ablations(p Params) (*Report, error) {
	p = p.withDefaults()
	vgg := model.MustByName("VGG 19")
	// An HI strict model under the diurnal Wiki trace: placement and
	// keep-alive dominate.
	steady := Scenario{Strict: vgg, Rate: wikiRate(p.Duration)}
	// The erratic Twitter trace: queueing appears and request
	// reordering pays off.
	bursty := Scenario{Strict: vgg, Rate: twitterRate(p.Duration, p.Seed)}
	// Rotating heavy BE models (the Figure 7 scenario): reconfiguration
	// and prediction pay off.
	shifting := Scenario{Strict: model.MustByName("ShuffleNet V2"), BEPool: model.VisionHI(),
		RotatePeriod: 10, Rate: wikiRate(p.Duration)}
	const (
		wiki     = "Wiki, VGG 19 strict"
		twitter  = "Twitter, VGG 19 strict"
		rotating = "rotating HI BE, ShuffleNet V2 strict"
	)
	choices := []struct {
		name, workload string
		tpl            Scenario
		off            core.ProteanConfig // the policy without the choice
		offScaler      autoscale.Config   // the scaler without the choice
	}{
		{"request reordering", twitter, bursty, core.ProteanConfig{DisableReorder: true}, autoscale.Config{}},
		{"dynamic reconfiguration", rotating, shifting, core.ProteanConfig{DisableDynamicReconfig: true}, autoscale.Config{}},
		{"slowdown-aware placement", wiki, steady, core.ProteanConfig{NaiveStrictPlacement: true}, autoscale.Config{}},
		{"delayed termination", wiki, steady, core.ProteanConfig{}, autoscale.Config{Immediate: true}},
		{"EWMA prediction", rotating, shifting, core.ProteanConfig{Reconfig: reconfig.Config{Alpha: 1}}, autoscale.Config{}},
	}
	var scs []Scenario
	for _, c := range choices {
		with, without := c.tpl, c.tpl
		with.Label = "ablation " + c.name + " with"
		with.Policy = core.NewProtean(core.ProteanConfig{})
		without.Label = "ablation " + c.name + " without"
		without.Policy = core.NewProtean(c.off)
		without.Scaler = c.offScaler
		pair := []Scenario{with, without}
		shareTrace(pair)
		scs = append(scs, pair...)
	}
	runs, err := RunScenarios(p, scs, sloAndP99)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablations: PROTEAN with and without each design choice",
		Headers: []string{"design choice", "workload", "SLO with", "SLO without",
			"strict P99 with", "strict P99 without"},
		Notes: []string{"'without' disables only the named choice; both sides replay one trace"},
	}
	for i, c := range choices {
		with, without := runs[2*i], runs[2*i+1]
		t.Rows = append(t.Rows, []Cell{
			text(c.name), text(c.workload), with[0], without[0], with[1], without[1],
		})
	}
	return &Report{ID: "ablations", Tables: []*Table{t}}, nil
}
