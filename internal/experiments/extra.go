package experiments

import (
	"fmt"

	"protean/internal/autoscale"
	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
)

// ColdStarts reproduces the §4.2 claim: delayed termination combined
// with request batching "reduces the number of cold starts by up to 98%"
// versus scaling containers down immediately.
func ColdStarts(p Params) (*Report, error) {
	p = p.withDefaults()
	scs := make([]Scenario, 2)
	rate := wikiRate(p.Duration)
	for i, label := range []string{"coldstarts delayed", "coldstarts immediate"} {
		// No pre-warming: the point is to observe the scaling policies.
		scs[i] = Scenario{
			Label:     label,
			Strict:    model.MustByName("ResNet 50"),
			Rate:      rate,
			Policy:    core.NewProtean(core.ProteanConfig{}),
			NoPrewarm: true,
		}
	}
	scs[1].Scaler = autoscale.Config{Immediate: true}
	shareTrace(scs) // the scaling policy is the only difference
	type run struct {
		coldStarts int
		sloP99     [2]Cell
	}
	runs, err := RunScenarios(p, scs, func(res *cluster.Result) run {
		return run{coldStarts: res.ColdStarts, sloP99: sloAndP99(res)}
	})
	if err != nil {
		return nil, err
	}
	delayed, immediate := runs[0], runs[1]

	reduction := 0.0
	if immediate.coldStarts > 0 {
		reduction = 1 - float64(delayed.coldStarts)/float64(immediate.coldStarts)
	}
	t := &Table{
		Title:   "Section 4.2 claim: delayed termination vs immediate scale-down",
		Headers: []string{"policy", "cold starts", "SLO compliance", "strict P99"},
		Rows: [][]Cell{
			{text("delayed termination (~10 min)"), count(delayed.coldStarts), delayed.sloP99[0], delayed.sloP99[1]},
			{text("immediate scale-down"), count(immediate.coldStarts), immediate.sloP99[0], immediate.sloP99[1]},
		},
		Notes: []string{
			fmt.Sprintf("cold-start reduction: %.1f%% (paper: up to 98%%)", reduction*100),
		},
	}
	return &Report{ID: "coldstarts", Tables: []*Table{t}}, nil
}

// Hopper demonstrates the §7 generalizability claim: the same PROTEAN
// policies on a Hopper H100-80GB fleet, whose doubled slice memory
// relieves exactly the workload that strains the A100 — the 13.7 GB
// DPN 92 batches that only fit the A100's 4g slice.
func Hopper(p Params) (*Report, error) {
	p = p.withDefaults()
	models := []*model.Model{
		model.MustByName("ResNet 50"),
		model.MustByName("DPN 92"),
	}
	if p.Quick {
		models = models[1:]
	}
	archs := []struct {
		name string
		arch *gpu.Arch
	}{
		{"A100-40GB", nil},
		{"H100-80GB", func() *gpu.Arch { a := gpu.ArchH100(); return &a }()},
	}
	t := &Table{
		Title:   "Section 7 generalizability: PROTEAN on Ampere vs Hopper",
		Headers: []string{"strict model", "architecture", "SLO compliance", "strict P99", "reconfigs"},
	}
	var scs []Scenario
	for _, m := range models {
		// Both architectures replay the model's one Wiki trace.
		row := make([]Scenario, len(archs))
		rate := wikiRate(p.Duration)
		for ai, a := range archs {
			row[ai] = Scenario{
				Label:  fmt.Sprintf("hopper %s/%s", m.Name(), a.name),
				Strict: m,
				Rate:   rate,
				Policy: core.NewProtean(core.ProteanConfig{}),
				Arch:   a.arch,
			}
		}
		shareTrace(row)
		scs = append(scs, row...)
	}
	runs, err := RunScenarios(p, scs, func(res *cluster.Result) []Cell {
		c := sloAndP99(res)
		return []Cell{c[0], c[1], count(res.Reconfigs)}
	})
	if err != nil {
		return nil, err
	}
	for i, m := range models {
		for ai, a := range archs {
			t.Rows = append(t.Rows, append([]Cell{text(m.Name()), text(a.name)}, runs[i*len(archs)+ai]...))
		}
	}
	t.Notes = append(t.Notes,
		"policies are architecture-agnostic: plans in slot-prefix profiles translate per generation (§7)")
	return &Report{ID: "hopper", Tables: []*Table{t}}, nil
}
