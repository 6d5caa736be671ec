package experiments

import (
	"fmt"

	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/trace"
)

// fig6Models is the vision subset Figure 6 plots.
func fig6Models(p Params) []*model.Model {
	if p.Quick {
		return []*model.Model{model.MustByName("VGG 19")}
	}
	return []*model.Model{
		model.MustByName("ResNet 50"),
		model.MustByName("DenseNet 121"),
		model.MustByName("VGG 19"),
	}
}

// Fig6TailBreakdown reproduces Figure 6: the decomposition of strict
// P99 latency into minimum execution, resource deficiency, interference
// and queueing for a subset of vision models.
func Fig6TailBreakdown(p Params) (*Report, error) {
	p = p.withDefaults()
	models := fig6Models(p)
	schemes := PrimarySchemes()
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario) {
		sc.Rate = wikiRate(p.Duration)
	}))
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	var tables []*Table
	for i, m := range models {
		t := &Table{
			Title:   fmt.Sprintf("Figure 6: strict P99 latency breakdown — %s", m.Name()),
			Headers: []string{"scheme", "P99", "min", "deficiency", "interference", "queue+cold", "SLO"},
		}
		for j, sch := range schemes {
			sum := results[i*len(schemes)+j].Recorder.Summarize()
			b := sum.P99Breakdown
			t.Rows = append(t.Rows, []string{
				sch.Name, ms(sum.P99), ms(b.MinPossible), ms(b.Deficiency),
				ms(b.Interference), ms(b.Queue + b.ColdStart), pct(sum.SLOCompliance),
			})
		}
		tables = append(tables, t)
	}
	return &Report{ID: "fig6", Tables: tables}, nil
}

// Fig7ReconfigTimeline reproduces Figure 7: PROTEAN's geometry changes
// as the best-effort model rotates (including the large-footprint
// DPN 92 that forces the (4g, 3g) switch).
func Fig7ReconfigTimeline(p Params) (*Report, error) {
	p = p.withDefaults()
	results, err := RunScenarios(p, []Scenario{{
		Label:        "fig7 timeline",
		Strict:       model.MustByName("ShuffleNet V2"),
		BEPool:       model.VisionHI(),
		RotatePeriod: 15,
		Rate:         wikiRate(p.Duration),
		Policy:       core.NewProtean(core.ProteanConfig{}),
	}})
	if err != nil {
		return nil, err
	}
	res := results[0]
	timeline := &Table{
		Title:   "Figure 7: PROTEAN geometry timeline (ShuffleNet V2 strict, rotating HI BE models)",
		Headers: []string{"time (s)", "node", "geometry"},
	}
	for _, ev := range res.Timeline {
		timeline.Rows = append(timeline.Rows, []string{
			fmt.Sprintf("%.1f", ev.Time), fmt.Sprintf("%d", ev.Node), ev.Geometry,
		})
	}
	sum := res.Recorder.Summarize()
	summary := &Table{
		Title:   "Figure 7: run summary",
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"SLO compliance", pct(sum.SLOCompliance)},
			{"strict P99", ms(sum.P99)},
			{"geometry changes", fmt.Sprintf("%d", res.Reconfigs)},
		},
		Notes: []string{"DPN 92 rotations exceed the small-slice capacity and trigger the (4g, 3g) switch"},
	}
	return &Report{ID: "fig7", Tables: []*Table{timeline, summary}}, nil
}

// Fig8LatencyCDF reproduces Figure 8: the end-to-end latency CDF per
// scheme for SENet 18.
func Fig8LatencyCDF(p Params) (*Report, error) {
	p = p.withDefaults()
	m := model.MustByName("SENet 18")
	quantiles := []float64{50, 60, 70, 80, 90, 95, 99}
	t := &Table{
		Title:   "Figure 8: end-to-end latency CDF (SENet 18, strict requests)",
		Headers: []string{"percentile"},
	}
	schemes := PrimarySchemes()
	results, err := RunScenarios(p, gridScenarios([]*model.Model{m}, schemes, func(sc *Scenario) {
		sc.Rate = wikiRate(p.Duration)
	}))
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	cols := make([][]string, len(schemes))
	for j, sch := range schemes {
		strict := results[j].Recorder.Strict()
		for _, q := range quantiles {
			cols[j] = append(cols[j], ms(strict.Percentile(q)))
		}
		t.Headers = append(t.Headers, sch.Name)
	}
	for qi, q := range quantiles {
		row := []string{fmt.Sprintf("P%.0f", q)}
		for j := range schemes {
			row = append(row, cols[j][qi])
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("SLO target: %s", ms(m.SLO(model.DefaultSLOMultiplier))))
	return &Report{ID: "fig8", Tables: []*Table{t}}, nil
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
	results, err := RunScenarios(p, schemeRow(Scenario{
		BEPool: model.VisionHI(),
		Rate:   trace.Constant(AllBEMeanRPS),
	}, schemes, func(scheme string) string { return "table5 " + scheme }))
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
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario) {
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
