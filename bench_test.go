package protean

import (
	"testing"

	"protean/internal/experiments"
)

// benchParams shrinks the sweeps so each iteration stays tractable while
// still exercising the full pipeline of its experiment.
func benchParams() experiments.Params {
	return experiments.Params{Quick: true, Duration: 20, Warmup: 6}
}

// benchExperiment runs one registry entry per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	params := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := e.Run(params)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(report.Tables) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// One benchmark per paper table and figure.

func BenchmarkFig2Motivation(b *testing.B)             { benchExperiment(b, "fig2") }
func BenchmarkFig3FBR(b *testing.B)                    { benchExperiment(b, "fig3") }
func BenchmarkFig5SLOCompliance(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6TailBreakdown(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7ReconfigTimeline(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8LatencyCDF(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9CostVsSLO(b *testing.B)              { benchExperiment(b, "fig9") }
func BenchmarkFig10ThroughputUtilization(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11ErraticTrace(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12VHIModels(b *testing.B)             { benchExperiment(b, "fig12") }
func BenchmarkFig13GenerativeLLMs(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14SkewedStrictness(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkTable3SpotPricing(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkTable4AllStrict(b *testing.B)            { benchExperiment(b, "table4") }
func BenchmarkTable5AllBE(b *testing.B)                { benchExperiment(b, "table5") }
func BenchmarkFig15TightSLO(b *testing.B)              { benchExperiment(b, "fig15") }
func BenchmarkFig16GPUlet(b *testing.B)                { benchExperiment(b, "fig16") }
func BenchmarkFig17Oracle(b *testing.B)                { benchExperiment(b, "fig17") }
func BenchmarkStatsSignificance(b *testing.B)          { benchExperiment(b, "stats") }
func BenchmarkColdStartsClaim(b *testing.B)            { benchExperiment(b, "coldstarts") }
func BenchmarkKneeSweep(b *testing.B)                  { benchExperiment(b, "knee") }
func BenchmarkHopperGeneralizability(b *testing.B)     { benchExperiment(b, "hopper") }

// Scenario-runner scaling pair: the same experiment with the worker
// pool forced sequential vs one worker per CPU. Compare with
// `go test -bench 'Fig5Workers' -benchtime 3x .` to see the speedup;
// both produce byte-identical reports (see internal/sim determinism
// tests), so the gap is pure wall clock.

func benchWorkers(b *testing.B, parallel int) {
	b.Helper()
	params := benchParams()
	params.Parallel = parallel
	params.Quick = false // full model×scheme grid, enough fan-out to matter
	e, ok := experiments.ByID("fig5")
	if !ok {
		b.Fatal("fig5 not registered")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5WorkersSequential(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkFig5WorkersParallel(b *testing.B)   { benchWorkers(b, 0) }

// The with/without comparison of every design choice DESIGN.md calls
// out, as one report.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }
