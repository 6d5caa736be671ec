package experiments

import (
	"fmt"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/trace"
)

// summarize reads a run's strict-request summary.
func summarize(res *cluster.Result) metrics.Summary { return res.Recorder.Summarize() }

// sloAndP99 reads a run's strict SLO compliance and strict P99 cells.
func sloAndP99(res *cluster.Result) [2]Cell {
	return [2]Cell{slo(res), ms(res.Recorder.Strict().Percentile(99))}
}

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
	sums, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario) {
		sc.Rate = wikiRate(p.Duration)
	}), summarize)
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
			sum := sums[i*len(schemes)+j]
			b := sum.P99Breakdown
			t.Rows = append(t.Rows, []Cell{
				text(sch.Name), ms(sum.P99), ms(b.MinPossible), ms(b.Deficiency),
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
	tables, err := RunScenarios(p, []Scenario{{
		Label:        "fig7 timeline",
		Strict:       model.MustByName("ShuffleNet V2"),
		BEPool:       model.VisionHI(),
		RotatePeriod: 15,
		Rate:         wikiRate(p.Duration),
		Policy:       core.NewProtean(core.ProteanConfig{}),
	}}, func(res *cluster.Result) []*Table {
		timeline := &Table{
			Title:   "Figure 7: PROTEAN geometry timeline (ShuffleNet V2 strict, rotating HI BE models)",
			Headers: []string{"time (s)", "node", "geometry"},
		}
		for _, ev := range res.Timeline {
			timeline.Rows = append(timeline.Rows, []Cell{
				text(fmt.Sprintf("%.1f", ev.Time)), text(fmt.Sprintf("%d", ev.Node)), text(ev.Geometry),
			})
		}
		sum := res.Recorder.Summarize()
		summary := &Table{
			Title:   "Figure 7: run summary",
			Headers: []string{"metric", "value"},
			Rows: [][]Cell{
				{text("SLO compliance"), pct(sum.SLOCompliance)},
				{text("strict P99"), ms(sum.P99)},
				{text("geometry changes"), count(res.Reconfigs)},
			},
			Notes: []string{"DPN 92 rotations exceed the small-slice capacity and trigger the (4g, 3g) switch"},
		}
		return []*Table{timeline, summary}
	})
	if err != nil {
		return nil, err
	}
	return &Report{ID: "fig7", Tables: tables[0]}, nil
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
	// One column of strict percentiles per scheme.
	cols, err := RunScenarios(p, gridScenarios([]*model.Model{m}, schemes, func(sc *Scenario) {
		sc.Rate = wikiRate(p.Duration)
	}), func(res *cluster.Result) []Cell {
		strict := res.Recorder.Strict()
		col := make([]Cell, len(quantiles))
		for i, q := range quantiles {
			col[i] = ms(strict.Percentile(q))
		}
		return col
	})
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	for _, sch := range schemes {
		t.Headers = append(t.Headers, sch.Name)
	}
	for qi, q := range quantiles {
		row := []Cell{text(fmt.Sprintf("P%.0f", q))}
		for j := range schemes {
			row = append(row, cols[j][qi])
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "SLO target: "+ms(m.SLO(model.DefaultSLOMultiplier)).String())
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
	cells, err := RunScenarios(p, schemeRow(Scenario{
		BEPool: model.VisionHI(),
		Rate:   trace.Constant(AllBEMeanRPS),
	}, schemes, func(scheme string) string { return "table5 " + scheme }), func(res *cluster.Result) []Cell {
		be := res.Recorder.BestEffort()
		return []Cell{ms(be.Percentile(50)), ms(be.Percentile(99))}
	})
	if err != nil {
		return nil, err
	}
	for j, sch := range schemes {
		t.Rows = append(t.Rows, append([]Cell{text(sch.Name)}, cells[j]...))
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
	runs, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario) {
		sc.Rate = wikiRate(p.Duration)
	}), sloAndP99)
	if err != nil {
		return nil, fmt.Errorf("fig17: %w", err)
	}
	for i, m := range models {
		row := []Cell{text(m.Name())}
		for c := range 2 { // the SLO columns, then the P99 columns
			for j := range schemes {
				row = append(row, runs[i*len(schemes)+j][c])
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"the Oracle runs PROTEAN's policies with perfect BE prediction and zero reconfiguration downtime")
	return &Report{ID: "fig17", Tables: []*Table{t}}, nil
}
