package experiments

import (
	"fmt"
	"math"

	"protean/internal/cluster"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/trace"
)

// StatsSignificance reproduces §7's statistical significance analysis:
// for a vision and a language workload, it compares PROTEAN's strict
// latencies against each baseline with Welch's t-test, Cohen's d, and
// 95% confidence intervals on mean latency.
func StatsSignificance(p Params) (*Report, error) {
	p = p.withDefaults()
	cases := []struct {
		label  string
		strict *model.Model
		rate   float64
	}{
		{"vision (VGG 19)", model.MustByName("VGG 19"), VisionMeanRPS},
		{"language (ALBERT)", model.MustByName("ALBERT"), LanguageMeanRPS},
	}
	if p.Quick {
		cases = cases[:1]
	}

	schemes := PrimarySchemes()
	var scs []Scenario
	for _, tc := range cases {
		scs = append(scs, schemeRow(Scenario{Strict: tc.strict, Rate: trace.Constant(tc.rate)}, schemes,
			func(scheme string) string { return "stats " + tc.label + "/" + scheme })...)
	}
	type run struct {
		latencies []float64 // strict
		slo       float64
	}
	runs, err := RunScenarios(p, scs, metrics.Rows, func(res *cluster.Result) run {
		return run{latencies: res.Recorder.Strict().Latencies(), slo: res.Recorder.SLOCompliance()}
	})
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for ci, tc := range cases {
		// Collect strict latency samples per scheme.
		latencies := make(map[string][]float64)
		compliance := make(map[string]float64)
		for j, sch := range schemes {
			r := runs[ci*len(schemes)+j]
			latencies[sch.Name] = r.latencies
			compliance[sch.Name] = r.slo
		}

		t := &Table{
			Title: fmt.Sprintf("Section 7: PROTEAN vs baselines — %s", tc.label),
			Headers: []string{
				"baseline", "ΔSLO (pp)", "t", "p-value", "Cohen's d",
				"PROTEAN mean ±95% CI", "baseline mean ±95% CI",
			},
		}
		protean := latencies["PROTEAN"]
		pm, ph, err := metrics.MeanCI95(protean)
		if err != nil {
			return nil, err
		}
		for _, sch := range schemes {
			if sch.Name == "PROTEAN" {
				continue
			}
			base := latencies[sch.Name]
			welch, err := metrics.WelchT(base, protean)
			if err != nil {
				return nil, err
			}
			d, err := metrics.CohenD(base, protean)
			if err != nil {
				return nil, err
			}
			bm, bh, err := metrics.MeanCI95(base)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []Cell{
				text(sch.Name),
				signed((compliance["PROTEAN"] - compliance[sch.Name]) * 100),
				fixed(welch.T, 1),
				pvalue(welch.P),
				fixed(d, 2),
				text(ms(pm).String() + " ± " + ms(ph).String()),
				text(ms(bm).String() + " ± " + ms(bh).String()),
			})
		}
		t.Notes = append(t.Notes,
			"positive d: the baseline's mean strict latency exceeds PROTEAN's")
		tables = append(tables, t)
	}
	return &Report{ID: "stats", Tables: tables}, nil
}

// formatP renders a p-value. WelchT computes the tail through the t
// survival function, so even extreme separations yield a representable
// magnitude; only float64 underflow (p below ~5e-324) prints as "<1e-300".
func formatP(p float64) string {
	if math.IsNaN(p) {
		return "n/a"
	}
	// Exact underflow-to-zero check, not a tolerance comparison; floateq
	// exempts comparisons against the zero constant by design.
	if p == 0 {
		return "<1e-300"
	}
	return fmt.Sprintf("%.2e", p)
}
