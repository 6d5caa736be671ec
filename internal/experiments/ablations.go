package experiments

import (
	"fmt"

	"protean/internal/autoscale"
	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/reconfig"
)

// AblationResult summarizes a with/without comparison of one PROTEAN
// design choice.
type AblationResult struct {
	// Name labels the design choice.
	Name string
	// With and Without are the SLO compliance values.
	With, Without float64
	// WithP99 and WithoutP99 are the strict P99 latencies in seconds.
	WithP99, WithoutP99 float64
}

// String renders the comparison.
func (r AblationResult) String() string {
	return fmt.Sprintf("%s: with %.2f%% (P99 %s) / without %.2f%% (P99 %s)",
		r.Name, r.With*100, ms(r.WithP99), r.Without*100, ms(r.WithoutP99))
}

// ablationKind selects the workload shape that exposes each design
// choice.
type ablationKind int

const (
	// ablationSteady: an HI strict model under the diurnal Wiki trace —
	// placement and keep-alive dominate.
	ablationSteady ablationKind = iota + 1
	// ablationBursty: the erratic Twitter trace — queueing appears and
	// request reordering pays off.
	ablationBursty
	// ablationShifting: rotating heavy BE models (the Figure 7
	// scenario) — reconfiguration and prediction pay off.
	ablationShifting
)

// runAblation runs the with/without pair on the workload that exposes
// kind; with and without carry only the policy and scaler under test.
func runAblation(p Params, kind ablationKind, name string, with, without Scenario) (AblationResult, error) {
	p = p.withDefaults()
	scs := []Scenario{with, without}
	for i, side := range []string{"with", "without"} {
		sc := &scs[i]
		sc.Label = "ablation " + name + " " + side
		sc.Strict = model.MustByName("VGG 19")
		sc.Rate = wikiRate(p.Duration)
		switch kind {
		case ablationBursty:
			sc.Rate = twitterRate(p.Duration, p.Seed)
		case ablationShifting:
			sc.Strict = model.MustByName("ShuffleNet V2")
			sc.BEPool = model.VisionHI()
			sc.RotatePeriod = 10
		}
	}
	results, err := RunScenarios(p, scs)
	if err != nil {
		return AblationResult{}, err
	}
	resWith, resWithout := results[0], results[1]
	return AblationResult{
		Name:       name,
		With:       resWith.Recorder.SLOCompliance(),
		Without:    resWithout.Recorder.SLOCompliance(),
		WithP99:    resWith.Recorder.Strict().Percentile(99),
		WithoutP99: resWithout.Recorder.Strict().Percentile(99),
	}, nil
}

// AblationReordering compares PROTEAN with and without strict-first
// request reordering (§4.1).
func AblationReordering(p Params) (AblationResult, error) {
	return runAblation(p, ablationBursty, "request reordering",
		Scenario{Policy: core.NewProtean(core.ProteanConfig{})},
		Scenario{Policy: core.NewProtean(core.ProteanConfig{DisableReorder: true})})
}

// AblationReconfig compares dynamic Algorithm 2 reconfiguration against
// a pinned (4g, 3g) geometry.
func AblationReconfig(p Params) (AblationResult, error) {
	return runAblation(p, ablationShifting, "dynamic reconfiguration",
		Scenario{Policy: core.NewProtean(core.ProteanConfig{})},
		Scenario{Policy: core.NewProtean(core.ProteanConfig{DisableDynamicReconfig: true})})
}

// AblationPlacement compares slowdown-factor (η) strict placement
// against always-largest-slice placement.
func AblationPlacement(p Params) (AblationResult, error) {
	return runAblation(p, ablationSteady, "slowdown-aware placement",
		Scenario{Policy: core.NewProtean(core.ProteanConfig{})},
		Scenario{Policy: core.NewProtean(core.ProteanConfig{NaiveStrictPlacement: true})})
}

// AblationKeepAlive compares delayed container termination (§4.2)
// against immediate scale-down.
func AblationKeepAlive(p Params) (AblationResult, error) {
	return runAblation(p, ablationSteady, "delayed termination",
		Scenario{Policy: core.NewProtean(core.ProteanConfig{})},
		Scenario{Policy: core.NewProtean(core.ProteanConfig{}), Scaler: autoscale.Config{Immediate: true}})
}

// AblationPredictor compares the EWMA BE-load predictor against a
// last-value predictor (alpha = 1).
func AblationPredictor(p Params) (AblationResult, error) {
	return runAblation(p, ablationShifting, "EWMA prediction",
		Scenario{Policy: core.NewProtean(core.ProteanConfig{})},
		Scenario{Policy: core.NewProtean(core.ProteanConfig{Reconfig: reconfig.Config{Alpha: 1}})})
}
