package sim_test

// Determinism regression: every EXPERIMENTS.md figure assumes that a
// scenario is a pure function of its seed. This test runs a full
// PROTEAN scenario (batching, placement, autoscaling, reconfiguration)
// end-to-end through the public API and asserts the serialized result
// is byte-identical across runs with the same seed — and different
// across seeds, so a broken seed plumbing can't pass by accident.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"protean"
	"protean/internal/experiments"
)

func runScenario(t *testing.T, seed int64) []byte {
	t.Helper()
	p, err := protean.New(
		protean.WithScheme(protean.SchemePROTEAN),
		protean.WithSeed(seed),
		protean.WithWarmup(5*time.Second),
	)
	if err != nil {
		t.Fatalf("new platform: %v", err)
	}
	res, err := p.Run(protean.Workload{
		StrictModel:    "ResNet 50",
		StrictFraction: 0.5,
		Shape:          protean.TraceWiki,
		MeanRPS:        3000,
		Duration:       30 * time.Second,
	})
	if err != nil {
		t.Fatalf("run scenario (seed %d): %v", seed, err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return data
}

func TestScenarioDeterministicUnderFixedSeed(t *testing.T) {
	first := runScenario(t, 42)
	second := runScenario(t, 42)
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed produced different results:\n run 1: %s\n run 2: %s", first, second)
	}
}

func TestScenarioVariesAcrossSeeds(t *testing.T) {
	base := runScenario(t, 42)
	other := runScenario(t, 1042)
	if bytes.Equal(base, other) {
		t.Fatalf("different seeds produced byte-identical results — seed is not reaching the simulator:\n%s", base)
	}
}

// TestParallelRunScenariosMatchesSequential extends the determinism
// contract to the worker-pool runner: fanning a whole experiment's
// scenario grid across goroutines must yield reports byte-identical to
// the sequential order, because results are collected by index and each
// scenario owns its simulator.
func TestParallelRunScenariosMatchesSequential(t *testing.T) {
	runFig5 := func(parallel int) []byte {
		p := experiments.Params{
			Nodes: 4, Duration: 20, Warmup: 5, Seed: 42,
			Quick: true, Parallel: parallel,
		}
		report, err := experiments.Fig5SLOCompliance(p)
		if err != nil {
			t.Fatalf("fig5 (parallel=%d): %v", parallel, err)
		}
		data, err := json.Marshal(report)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return data
	}
	seq := runFig5(1)
	par := runFig5(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel run diverged from sequential:\n sequential: %s\n parallel:   %s", seq, par)
	}
}
