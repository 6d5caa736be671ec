package experiments

import (
	"fmt"

	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// Table4AllStrict reproduces Table 4: SLO compliance when every request
// is strict (ResNet 50) — the "default" scenario works like INFless were
// designed for.
func Table4AllStrict(p Params) (*Report, error) {
	p = p.withDefaults()
	t := &Table{
		Title:   "Table 4: SLO compliance, 100% strict (ResNet 50)",
		Headers: []string{"scheme", "SLO compliance"},
	}
	schemes := PrimarySchemes()
	var scs []Scenario
	for _, sch := range schemes {
		scs = append(scs, Scenario{
			Label:      fmt.Sprintf("table4 %s", sch.Name),
			Strict:     model.MustByName("ResNet 50"),
			StrictFrac: 1.0,
			Rate:       wikiRate(p.Duration),
			Policy:     sch.Factory,
		})
	}
	results, err := RunScenarios(p, scs)
	if err != nil {
		return nil, err
	}
	for j, sch := range schemes {
		t.Rows = append(t.Rows, []string{sch.Name, pct(results[j].Recorder.SLOCompliance())})
	}
	return &Report{ID: "table4", Tables: []*Table{t}}, nil
}

// Table5AllBE reproduces Table 5: P50 and P99 latency when every request
// is best effort (random HI models).
func Table5AllBE(p Params) (*Report, error) {
	p = p.withDefaults()
	t := &Table{
		Title:   "Table 5: (P50, P99) latency, 100% best effort (random HI models)",
		Headers: []string{"scheme", "P50", "P99"},
	}
	schemes := append(PrimarySchemes(), NamedFactory{
		Name:    "PROTEAN (BE-fair)",
		Factory: core.NewProtean(core.ProteanConfig{BEFairPlacement: true}),
	})
	var scs []Scenario
	for _, sch := range schemes {
		scs = append(scs, Scenario{
			Label:      fmt.Sprintf("table5 %s", sch.Name),
			StrictFrac: 0,
			BEPool:     model.VisionHI(),
			Rate:       trace.Constant(AllBEMeanRPS),
			Policy:     sch.Factory,
		})
	}
	results, err := RunScenarios(p, scs)
	if err != nil {
		return nil, err
	}
	for j, sch := range schemes {
		be := results[j].Recorder.BestEffort()
		t.Rows = append(t.Rows, []string{sch.Name, ms(be.Percentile(50)), ms(be.Percentile(99))})
	}
	t.Notes = append(t.Notes,
		"PROTEAN deprioritizes BE work (packing); the BE-fair variant implements the paper's",
		"future-work idea of slowdown-aware BE placement for the 100% BE corner case")
	return &Report{ID: "table5", Tables: []*Table{t}}, nil
}

// fig15Models is the strict-model subset for the tight-SLO study.
func fig15Models(p Params) []*model.Model {
	if p.Quick {
		return []*model.Model{model.MustByName("ResNet 50")}
	}
	return []*model.Model{
		model.MustByName("ShuffleNet V2"),
		model.MustByName("MobileNet"),
		model.MustByName("ResNet 50"),
		model.MustByName("VGG 19"),
	}
}

// Fig15TightSLO reproduces Figure 15: SLO compliance when the latency
// target tightens from 3× to 2× the minimum execution latency.
func Fig15TightSLO(p Params) (*Report, error) {
	p = p.withDefaults()
	schemes := PrimarySchemes()
	t := &Table{Title: "Figure 15: SLO compliance, tight (2x) SLO target", Headers: []string{"strict model"}}
	for _, s := range schemes {
		t.Headers = append(t.Headers, s.Name)
	}
	models := fig15Models(p)
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario, _ *model.Model) {
		sc.Rate = wikiRate(p.Duration)
		sc.SLOMultiplier = 2.0
	}))
	if err != nil {
		return nil, fmt.Errorf("fig15: %w", err)
	}
	for i, m := range models {
		row := []string{m.Name()}
		for j := range schemes {
			row = append(row, pct(results[i*len(schemes)+j].Recorder.SLOCompliance()))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Report{ID: "fig15", Tables: []*Table{t}}, nil
}

// fig16Models is the model sweep for the GPUlet comparison.
func fig16Models(p Params) []*model.Model {
	if p.Quick {
		return []*model.Model{model.MustByName("ResNet 50")}
	}
	return []*model.Model{
		model.MustByName("ResNet 50"),
		model.MustByName("DenseNet 121"),
		model.MustByName("VGG 19"),
		model.MustByName("DPN 92"),
	}
}

// Fig16GPUlet reproduces Figure 16: PROTEAN vs GPUlet-style strategic
// MPS (60–65% SM cap for strict requests).
func Fig16GPUlet(p Params) (*Report, error) {
	p = p.withDefaults()
	schemes := []NamedFactory{
		{Name: "GPUlet", Factory: core.NewGPUlet(0, 0)},
		{Name: "PROTEAN", Factory: core.NewProtean(core.ProteanConfig{})},
	}
	t := &Table{Title: "Figure 16: PROTEAN vs strategic MPS-only (GPUlet)", Headers: []string{"strict model"}}
	for _, s := range schemes {
		t.Headers = append(t.Headers, s.Name)
	}
	models := fig16Models(p)
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario, _ *model.Model) {
		sc.Rate = trace.Constant(GPUletMeanRPS)
	}))
	if err != nil {
		return nil, fmt.Errorf("fig16: %w", err)
	}
	for i, m := range models {
		row := []string{m.Name()}
		for j := range schemes {
			row = append(row, pct(results[i*len(schemes)+j].Recorder.SLOCompliance()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"GPUlet caps SMs but still shares cache and bandwidth (§2.2), so interference persists")
	return &Report{ID: "fig16", Tables: []*Table{t}}, nil
}

// fig17Models is the model sweep for the Oracle comparison.
func fig17Models(p Params) []*model.Model {
	if p.Quick {
		return []*model.Model{model.MustByName("ResNet 50")}
	}
	return []*model.Model{
		model.MustByName("ShuffleNet V2"),
		model.MustByName("SENet 18"),
		model.MustByName("ResNet 50"),
		model.MustByName("VGG 19"),
	}
}

// Fig17Oracle reproduces Figure 17: PROTEAN vs an Oracle with perfect
// knowledge of upcoming load and free reconfigurations.
func Fig17Oracle(p Params) (*Report, error) {
	p = p.withDefaults()
	schemes := []NamedFactory{
		{Name: "PROTEAN", Factory: core.NewProtean(core.ProteanConfig{})},
		{Name: "Oracle", Factory: core.NewOracle()},
	}
	t := &Table{
		Title:   "Figure 17: PROTEAN vs Oracle",
		Headers: []string{"strict model", "PROTEAN SLO", "Oracle SLO", "PROTEAN P99", "Oracle P99"},
	}
	models := fig17Models(p)
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario, _ *model.Model) {
		sc.Rate = wikiRate(p.Duration)
	}))
	if err != nil {
		return nil, fmt.Errorf("fig17: %w", err)
	}
	for i, m := range models {
		row := []string{m.Name()}
		var slo, p99 []string
		for j := range schemes {
			res := results[i*len(schemes)+j]
			slo = append(slo, pct(res.Recorder.SLOCompliance()))
			p99 = append(p99, ms(res.Recorder.Strict().Percentile(99)))
		}
		row = append(row, slo...)
		row = append(row, p99...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"the Oracle runs PROTEAN's policies with perfect BE prediction and zero reconfiguration downtime")
	return &Report{ID: "fig17", Tables: []*Table{t}}, nil
}

// Table3SpotPricing reproduces Table 3 (static pricing) and adds a
// metered one-hour fleet demonstration of the attainable savings.
func Table3SpotPricing(p Params) (*Report, error) {
	p = p.withDefaults()
	static := &Table{
		Title:   "Table 3: on-demand and spot hourly pricing (8xA100 instance)",
		Headers: []string{"IaaS provider", "on-demand $/h", "spot $/h", "cost savings"},
	}
	for _, pr := range vm.Providers() {
		static.Rows = append(static.Rows, []string{
			pr.Provider,
			fmt.Sprintf("%.4f", pr.OnDemandHourly),
			fmt.Sprintf("%.4f", pr.SpotHourly),
			pct(pr.Savings()),
		})
	}

	metered := &Table{
		Title:   "Table 3 (metered): one-hour 8-node spot-preferred fleet per provider",
		Headers: []string{"IaaS provider", "metered cost", "on-demand baseline", "normalized"},
	}
	for _, pr := range vm.Providers() {
		s := sim.New(p.Seed)
		if tr := p.tracer("table3 " + pr.Provider); tr != nil {
			s.SetTracer(tr)
		}
		fleet, err := vm.NewFleet(s, vm.Config{
			Nodes:        p.Nodes,
			Mode:         vm.ModeSpotPreferred,
			Pricing:      pr,
			Availability: vm.AvailabilityHigh,
		})
		if err != nil {
			return nil, err
		}
		if err := fleet.Start(); err != nil {
			return nil, err
		}
		if err := s.RunUntil(3600); err != nil {
			return nil, err
		}
		report := fleet.Cost(0)
		metered.Rows = append(metered.Rows, []string{
			pr.Provider,
			fmt.Sprintf("$%.2f", report.Dollars),
			fmt.Sprintf("$%.2f", report.OnDemandBaseline),
			fmt.Sprintf("%.3f", report.Normalized),
		})
	}
	return &Report{ID: "table3", Tables: []*Table{static, metered}}, nil
}
