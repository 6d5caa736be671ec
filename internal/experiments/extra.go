package experiments

import (
	"fmt"

	"protean/internal/autoscale"
	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/trace"
)

// ColdStarts reproduces the §4.2 claim: delayed termination combined
// with request batching "reduces the number of cold starts by up to 98%"
// versus scaling containers down immediately.
func ColdStarts(p Params) (*Report, error) {
	p = p.withDefaults()
	scs := make([]Scenario, 2)
	for i, label := range []string{"coldstarts delayed", "coldstarts immediate"} {
		// No pre-warming: the point is to observe the scaling policies.
		scs[i] = Scenario{
			Label:     label,
			Strict:    model.MustByName("ResNet 50"),
			Rate:      wikiRate(p.Duration),
			Policy:    core.NewProtean(core.ProteanConfig{}),
			NoPrewarm: true,
		}
	}
	scs[1].Scaler = autoscale.Config{Immediate: true}
	results, err := RunScenarios(p, scs)
	if err != nil {
		return nil, err
	}
	delayed, immediate := results[0], results[1]

	reduction := 0.0
	if immediate.ColdStarts > 0 {
		reduction = 1 - float64(delayed.ColdStarts)/float64(immediate.ColdStarts)
	}
	t := &Table{
		Title:   "Section 4.2 claim: delayed termination vs immediate scale-down",
		Headers: []string{"policy", "cold starts", "SLO compliance", "strict P99"},
		Rows: [][]string{
			{"delayed termination (~10 min)", fmt.Sprintf("%d", delayed.ColdStarts),
				pct(delayed.Recorder.SLOCompliance()), ms(delayed.Recorder.Strict().Percentile(99))},
			{"immediate scale-down", fmt.Sprintf("%d", immediate.ColdStarts),
				pct(immediate.Recorder.SLOCompliance()), ms(immediate.Recorder.Strict().Percentile(99))},
		},
		Notes: []string{
			fmt.Sprintf("cold-start reduction: %.1f%% (paper: up to 98%%)", reduction*100),
		},
	}
	return &Report{ID: "coldstarts", Tables: []*Table{t}}, nil
}

// KneeSweep is a calibration-transparency extra: SLO compliance for each
// scheme across a request-rate sweep, exposing the per-scheme saturation
// knees that anchor the load calibration of EXPERIMENTS.md.
func KneeSweep(p Params) (*Report, error) {
	p = p.withDefaults()
	rates := []float64{5000, 7000, 9000, 11000}
	if p.Quick {
		rates = []float64{7000, 9000}
	}
	strict := model.MustByName("ResNet 50")
	schemes := PrimarySchemes()

	t := &Table{
		Title:   "Knee sweep: SLO compliance vs request rate (ResNet 50 strict)",
		Headers: []string{"rate (rps)"},
	}
	for _, s := range schemes {
		t.Headers = append(t.Headers, s.Name)
	}
	var scs []Scenario
	for _, rate := range rates {
		for _, sch := range schemes {
			scs = append(scs, Scenario{
				Label:  fmt.Sprintf("knee %s@%.0f", sch.Name, rate),
				Strict: strict,
				Rate:   trace.Constant(rate),
				Policy: sch.Factory,
			})
		}
	}
	results, err := RunScenarios(p, scs)
	if err != nil {
		return nil, err
	}
	for ri, rate := range rates {
		row := []string{fmt.Sprintf("%.0f", rate)}
		for j := range schemes {
			row = append(row, pct(results[ri*len(schemes)+j].Recorder.SLOCompliance()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"whole-GPU schemes collapse past their knee; PROTEAN's sliced isolation holds furthest")
	return &Report{ID: "knee", Tables: []*Table{t}}, nil
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
		for _, a := range archs {
			scs = append(scs, Scenario{
				Label:  fmt.Sprintf("hopper %s/%s", m.Name(), a.name),
				Strict: m,
				Rate:   wikiRate(p.Duration),
				Policy: core.NewProtean(core.ProteanConfig{}),
				Arch:   a.arch,
			})
		}
	}
	results, err := RunScenarios(p, scs)
	if err != nil {
		return nil, err
	}
	for i, m := range models {
		for ai, a := range archs {
			res := results[i*len(archs)+ai]
			t.Rows = append(t.Rows, []string{
				m.Name(), a.name,
				pct(res.Recorder.SLOCompliance()),
				ms(res.Recorder.Strict().Percentile(99)),
				fmt.Sprintf("%d", res.Reconfigs),
			})
		}
	}
	t.Notes = append(t.Notes,
		"policies are architecture-agnostic: plans in slot-prefix profiles translate per generation (§7)")
	return &Report{ID: "hopper", Tables: []*Table{t}}, nil
}
