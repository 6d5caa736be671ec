package experiments

import (
	"fmt"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/trace"
)

// gridScenarios builds the row-major model×scheme scenario grid, each
// cell labelled "model/scheme". build customizes each row's template
// beyond its strict model; the row's schemes share its trace.
func gridScenarios(models []*model.Model, schemes []NamedFactory, build func(sc *Scenario)) []Scenario {
	scs := make([]Scenario, 0, len(models)*len(schemes))
	for _, m := range models {
		tpl := Scenario{Strict: m}
		build(&tpl)
		scs = append(scs, schemeRow(tpl, schemes, func(scheme string) string { return m.Name() + "/" + scheme })...)
	}
	return scs
}

// schemeRow stamps out one scenario per scheme from tpl, labelled
// label(scheme name): the schemes compared on one workload, so they
// share one generated trace.
func schemeRow(tpl Scenario, schemes []NamedFactory, label func(scheme string) string) []Scenario {
	row := make([]Scenario, len(schemes))
	for j, sch := range schemes {
		row[j] = tpl
		row[j].Label = label(sch.Name)
		row[j].Policy = sch.Factory
	}
	shareTrace(row)
	return row
}

// complianceGrid is one row × scheme table scored by strict SLO
// compliance, the shape of Figures 5 and 12–16 and the knee sweep.
type complianceGrid struct {
	title   string
	header  string   // heads the row-label column
	rows    []string // one label per row: a strict model or a rate
	schemes []NamedFactory
	scs     []Scenario // row-major, len(rows) × len(schemes)
	notes   []string
}

// modelGrid is a compliance grid with one row per strict model, its
// cells built by gridScenarios.
func modelGrid(title string, models []*model.Model, schemes []NamedFactory, build func(*Scenario), notes ...string) complianceGrid {
	g := complianceGrid{title: title, header: "strict model", schemes: schemes,
		scs: gridScenarios(models, schemes, build), notes: notes}
	for _, m := range models {
		g.rows = append(g.rows, m.Name())
	}
	return g
}

// slo reads a run's strict SLO compliance as a percent cell.
func slo(res *cluster.Result) Cell { return pct(res.Recorder.SLOCompliance()) }

// complianceReport runs every grid's cells as one batch and renders one
// table per grid: a row per row label, a column per scheme.
func complianceReport(p Params, id string, grids ...complianceGrid) (*Report, error) {
	var scs []Scenario
	for _, g := range grids {
		scs = append(scs, g.scs...)
	}
	cells, err := RunScenarios(p, scs, slo)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	r := &Report{ID: id}
	for _, g := range grids {
		t := &Table{Title: g.title, Headers: []string{g.header}, Notes: g.notes}
		for _, s := range g.schemes {
			t.Headers = append(t.Headers, s.Name)
		}
		for _, label := range g.rows {
			row := append([]Cell{text(label)}, cells[:len(g.schemes)]...)
			cells = cells[len(g.schemes):]
			t.Rows = append(t.Rows, row)
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Fig5SLOCompliance reproduces Figure 5: SLO compliance of every scheme
// for each vision model under the Wiki trace.
func Fig5SLOCompliance(p Params) (*Report, error) {
	p = p.withDefaults()
	return complianceReport(p, "fig5", modelGrid("Figure 5: SLO compliance, Wiki trace, vision models",
		p.visionModels(), PrimarySchemes(), func(sc *Scenario) { sc.Rate = wikiRate(p.Duration) },
		fmt.Sprintf("Wiki trace scaled to a %d rps mean (paper: 5000 rps; see load calibration)", VisionMeanRPS)))
}

// Fig12VHIModels reproduces Figure 12: SLO compliance for the Very High
// Interference encoder LLMs.
func Fig12VHIModels(p Params) (*Report, error) {
	p = p.withDefaults()
	return complianceReport(p, "fig12", modelGrid("Figure 12: SLO compliance, VHI language models",
		p.languageModels(), PrimarySchemes(), func(sc *Scenario) { sc.Rate = trace.Constant(LanguageMeanRPS) },
		fmt.Sprintf("language rate calibrated to %d rps (paper: 128 rps); batch size 4", LanguageMeanRPS)))
}

// Fig13GenerativeLLMs reproduces Figure 13: SLO compliance for GPT-1 and
// GPT-2 with encoder LLMs as the rotating best-effort pool.
func Fig13GenerativeLLMs(p Params) (*Report, error) {
	p = p.withDefaults()
	return complianceReport(p, "fig13", modelGrid("Figure 13: SLO compliance, generative LLMs",
		model.Generative(), PrimarySchemes(), func(sc *Scenario) {
			sc.BEPool = model.Language()
			sc.Rate = trace.Constant(GenerativeMeanRPS)
		},
		fmt.Sprintf("GPT FBRs exceed the encoder LLMs' by ~42%%; rate %d rps (the paper's own)", GenerativeMeanRPS)))
}

// Fig14SkewedStrictness reproduces Figure 14: SLO compliance under
// strict-skewed (75/25) and BE-skewed (25/75) request mixes for
// ShuffleNet V2 and DPN 92.
func Fig14SkewedStrictness(p Params) (*Report, error) {
	p = p.withDefaults()
	models := []*model.Model{model.MustByName("ShuffleNet V2"), model.MustByName("DPN 92")}
	var grids []complianceGrid
	for _, skew := range []struct {
		name string
		frac float64
	}{
		{"strict skewed (75% strict)", 0.75},
		{"BE skewed (25% strict)", 0.25},
	} {
		grids = append(grids, modelGrid("Figure 14: "+skew.name, models, PrimarySchemes(), func(sc *Scenario) {
			sc.StrictFrac = skew.frac
			sc.Rate = wikiRate(p.Duration)
		}))
	}
	return complianceReport(p, "fig14", grids...)
}

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
	cells, err := RunScenarios(p, schemeRow(Scenario{
		Strict:     model.MustByName("ResNet 50"),
		StrictFrac: 1.0,
		Rate:       wikiRate(p.Duration),
	}, schemes, func(scheme string) string { return "table4 " + scheme }), slo)
	if err != nil {
		return nil, err
	}
	for j, sch := range schemes {
		t.Rows = append(t.Rows, []Cell{text(sch.Name), cells[j]})
	}
	return &Report{ID: "table4", Tables: []*Table{t}}, nil
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
	return complianceReport(p, "fig15", modelGrid("Figure 15: SLO compliance, tight (2x) SLO target",
		fig15Models(p), PrimarySchemes(), func(sc *Scenario) {
			sc.Rate = wikiRate(p.Duration)
			sc.SLOMultiplier = 2.0
		}))
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
	return complianceReport(p, "fig16", modelGrid("Figure 16: PROTEAN vs strategic MPS-only (GPUlet)",
		fig16Models(p), schemes, func(sc *Scenario) { sc.Rate = trace.Constant(GPUletMeanRPS) },
		"GPUlet caps SMs but still shares cache and bandwidth (§2.2), so interference persists"))
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
	g := complianceGrid{
		title:   "Knee sweep: SLO compliance vs request rate (ResNet 50 strict)",
		header:  "rate (rps)",
		schemes: PrimarySchemes(),
		notes:   []string{"whole-GPU schemes collapse past their knee; PROTEAN's sliced isolation holds furthest"},
	}
	for _, rate := range rates {
		row := fmt.Sprintf("%.0f", rate)
		g.rows = append(g.rows, row)
		g.scs = append(g.scs, schemeRow(Scenario{Strict: strict, Rate: trace.Constant(rate)}, g.schemes,
			func(scheme string) string { return "knee " + scheme + "@" + row })...)
	}
	return complianceReport(p, "knee", g)
}
