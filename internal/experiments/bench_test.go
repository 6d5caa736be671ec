package experiments

import (
	"testing"

	"protean/internal/core"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/trace"
)

// BenchmarkQuickScenario is the end-to-end engine benchmark: one full
// cluster run (trace generation, batching, placement, MPS execution,
// reconfiguration) of a quick PROTEAN scenario. The report content is
// pinned separately by the golden-hash determinism test.
func BenchmarkQuickScenario(b *testing.B) {
	p := Params{Quick: true, Duration: 10, Warmup: 3, Nodes: 2, Seed: 1}
	sc := Scenario{
		Label:  "bench/quick",
		Strict: model.MustByName("ResNet 50"),
		Policy: core.NewProtean(core.ProteanConfig{}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunScenario(p, sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil {
			b.Fatal("nil result")
		}
	}
}

// BenchmarkScenario measures full 60 s runs on 8 nodes, reporting
// simulation events per wall-clock second. Two workloads bound the
// spectrum: "vision" is the largest single scenario protean-bench runs
// (ResNet 50 at the 9000 rps vision mean — arrival-dominated, so most
// events land on the gateway lane), while "language" (BERT at 2000 rps,
// batch size 4) saturates its nodes and puts placement and GPU work on
// the eight node lanes.
func BenchmarkScenario(b *testing.B) {
	scenarios := []Scenario{
		{
			Label:  "vision",
			Strict: model.MustByName("ResNet 50"),
			Policy: core.NewProtean(core.ProteanConfig{}),
		},
		{
			Label:  "language",
			Strict: model.MustByName("BERT"),
			Rate:   trace.Constant(2000),
			Policy: core.NewProtean(core.ProteanConfig{}),
		},
	}
	p := Params{Duration: 60, Warmup: 15, Nodes: 8, Seed: 1}
	for _, sc := range scenarios {
		b.Run(sc.Label, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				tc, s, c, err := buildScenario(p, sc, nil, metrics.Rows)
				if err != nil {
					b.Fatal(err)
				}
				reqs, err := trace.Generate(tc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(reqs, p.Duration); err != nil {
					b.Fatal(err)
				}
				events += s.Executed()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
