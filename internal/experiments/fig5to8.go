package experiments

import (
	"fmt"

	"protean/internal/core"
	"protean/internal/model"
)

// gridScenarios builds the row-major model×scheme scenario grid shared
// by the compliance figures; build customizes each scenario beyond its
// strict model and policy.
func gridScenarios(models []*model.Model, schemes []NamedFactory, build func(sc *Scenario, m *model.Model)) []Scenario {
	scs := make([]Scenario, 0, len(models)*len(schemes))
	for _, m := range models {
		for _, sch := range schemes {
			sc := Scenario{
				Label:  fmt.Sprintf("%s/%s", m.Name(), sch.Name),
				Strict: m,
				Policy: sch.Factory,
			}
			build(&sc, m)
			scs = append(scs, sc)
		}
	}
	return scs
}

// Fig5SLOCompliance reproduces Figure 5: SLO compliance of every scheme
// for each vision model under the Wiki trace.
func Fig5SLOCompliance(p Params) (*Report, error) {
	p = p.withDefaults()
	schemes := PrimarySchemes()
	t := &Table{
		Title:   "Figure 5: SLO compliance, Wiki trace, vision models",
		Headers: []string{"strict model"},
	}
	for _, s := range schemes {
		t.Headers = append(t.Headers, s.Name)
	}
	models := p.visionModels()
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario, _ *model.Model) {
		sc.Rate = wikiRate(p.Duration)
	}))
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	for i, m := range models {
		row := []string{m.Name()}
		for j := range schemes {
			row = append(row, pct(results[i*len(schemes)+j].Recorder.SLOCompliance()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Wiki trace scaled to a %d rps mean (paper: 5000 rps; see load calibration)", VisionMeanRPS))
	return &Report{ID: "fig5", Tables: []*Table{t}}, nil
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
	results, err := RunScenarios(p, gridScenarios(models, schemes, func(sc *Scenario, _ *model.Model) {
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
	results, err := RunScenarios(p, gridScenarios([]*model.Model{m}, schemes, func(sc *Scenario, _ *model.Model) {
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
