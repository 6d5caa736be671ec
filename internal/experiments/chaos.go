package experiments

import (
	"fmt"

	"protean/internal/chaos"
	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/vm"
)

// chaosScales is the fault-rate sweep: multiples of the reference
// fault mix (chaos.DefaultConfig). Scale 0 keeps the injector live but
// fault-free — the sweep's control row.
func chaosScales(quick bool) []float64 {
	if quick {
		return []float64{0, 1}
	}
	return []float64{0, 0.5, 1, 2}
}

// chaosSchemes are the two ends of the degradation comparison: the
// static-MIG baseline (whole capacity pinned to one geometry, no
// reconfiguration to fault — but also no flexibility when slices die)
// versus PROTEAN (reconfigurations are extra fault surface, but the
// multi-slice geometry and strict-first requeue degrade gracefully).
func chaosSchemes() []NamedFactory {
	return []NamedFactory{
		{Name: "Naive Slicing", Factory: core.NewNaiveSlicing(nil)},
		{Name: "PROTEAN", Factory: core.NewProtean(core.ProteanConfig{})},
	}
}

// ChaosSweep is the availability experiment: SLO attainment, request
// availability, and normalized VM cost as the injected fault rate
// rises, for PROTEAN versus the static-MIG baseline. Every fault kind
// of the chaos subsystem is active — slice failures, stuck/aborted
// reconfigurations, stragglers, cold-start failures, and correlated
// spot-preemption storms on a spot-preferred fleet. A final cold-start
// table drops pre-warming so container-load faults and the bounded
// retry/backoff machinery fire for real.
func ChaosSweep(p Params) (*Report, error) {
	p = p.withDefaults()
	scales := chaosScales(p.Quick)
	schemes := chaosSchemes()
	strict := model.MustByName("ResNet 50")
	// One shared template: buildScenario clones it per run, and the chaos
	// storms need spot leases to revoke.
	vmTpl := &vm.Config{
		Mode:          vm.ModeSpotPreferred,
		Availability:  vm.AvailabilityModerate,
		CheckInterval: 45,
	}

	// Every run replays one Wiki trace: the faults come from the
	// simulation's seed, not from the arrivals.
	rate := wikiRate(p.Duration)
	var scs []Scenario
	cfgs := make([]chaos.Config, len(scales))
	for si, scale := range scales {
		cfgs[si] = chaos.DefaultConfig().Scaled(scale)
		for _, sch := range schemes {
			scs = append(scs, Scenario{
				Label:  fmt.Sprintf("chaos %s@%gx", sch.Name, scale),
				Strict: strict,
				Rate:   rate,
				Policy: sch.Factory,
				VM:     vmTpl,
				Chaos:  &cfgs[si],
			})
		}
	}
	// Cold-start fault rows: no pre-warming, so every container load is
	// a real cold start exposed to ColdStartFailProb.
	coldCfg := chaos.DefaultConfig()
	coldBase := len(scs)
	for _, sch := range schemes {
		scs = append(scs, Scenario{
			Label:     fmt.Sprintf("chaos coldstart %s", sch.Name),
			Strict:    strict,
			Rate:      rate,
			Policy:    sch.Factory,
			Chaos:     &coldCfg,
			NoPrewarm: true,
		})
	}
	shareTrace(scs)
	type run struct {
		slo, goodput float64
		cost         Cell
		avail        metrics.Availability
		faults       chaos.Stats
		coldStarts   int
	}
	runs, err := RunScenarios(p, scs, metrics.Counts, func(res *cluster.Result) run {
		r := run{
			slo:        res.Recorder.SLOCompliance(),
			goodput:    metrics.Goodput(res.Recorder, res.Duration),
			cost:       normalizedCost(res),
			avail:      res.Availability,
			coldStarts: res.ColdStarts,
		}
		if res.Chaos != nil {
			r.faults = *res.Chaos
		}
		return r
	})
	if err != nil {
		return nil, err
	}
	at := func(si, j int) run { return runs[si*len(schemes)+j] }

	main := &Table{
		Title:   "Chaos sweep: SLO attainment, availability, and cost vs fault rate",
		Headers: []string{"fault scale"},
	}
	for _, sch := range schemes {
		main.Headers = append(main.Headers,
			sch.Name+" SLO", sch.Name+" avail", sch.Name+" goodput (rps)", sch.Name+" cost")
	}
	for si, scale := range scales {
		row := []Cell{text(fmt.Sprintf("%gx", scale))}
		for j := range schemes {
			r := at(si, j)
			row = append(row, pct(r.slo), pct(r.avail.Rate()), fixed(r.goodput, 0), r.cost)
		}
		main.Rows = append(main.Rows, row)
	}
	// Degradation headline: the fraction of each scheme's own fault-free
	// SLO attainment retained at the harshest fault scale.
	last := len(scales) - 1
	if last > 0 {
		note := fmt.Sprintf("SLO retained at %gx vs 0x:", scales[last])
		for j, sch := range schemes {
			base := at(0, j).slo
			harsh := at(last, j).slo
			retained := 0.0
			if base > 0 {
				retained = harsh / base
			}
			if j > 0 {
				note += ","
			}
			note += fmt.Sprintf(" %s %s", sch.Name, pct(retained).String())
		}
		main.Notes = append(main.Notes, note)
	}
	main.Notes = append(main.Notes,
		"fault scale multiplies the reference mix (slice failures, stuck/aborted reconfigs, stragglers, cold-start failures, preemption storms)",
		"cost is normalized to an all-on-demand fleet; avail is completed/offered requests")

	detail := &Table{
		Title: "Chaos sweep: injected faults and resilience actions",
		Headers: []string{"fault scale", "scheme", "slice faults", "storms",
			"stuck reconfig", "aborted reconfig", "stragglers", "cs failures",
			"retries", "requeued", "dropped"},
	}
	for si, scale := range scales {
		for j, sch := range schemes {
			r := at(si, j)
			st := r.faults
			detail.Rows = append(detail.Rows, []Cell{
				text(fmt.Sprintf("%gx", scale)), text(sch.Name),
				count(st.SliceFaults),
				count(st.Storms),
				count(st.StuckReconfigs),
				count(st.AbortedReconfigs),
				count(st.Stragglers),
				count(st.ColdStartFailures),
				count(st.Retries),
				count(r.avail.Requeued),
				count(r.avail.Dropped),
			})
		}
	}
	detail.Notes = append(detail.Notes,
		"reconfiguration faults only strike schemes that reconfigure; the static baseline's exposure is slice and VM faults",
		"requeued counts requests re-dispatched after slice loss (strict-first); dropped includes best-effort shed under fault pressure")

	cold := &Table{
		Title: "Cold-start faults under retry/backoff (no pre-warming, 1x faults)",
		Headers: []string{"scheme", "cold starts", "cs failures", "retries",
			"dropped", "SLO", "avail"},
	}
	for j, sch := range schemes {
		r := runs[coldBase+j]
		cold.Rows = append(cold.Rows, []Cell{
			text(sch.Name),
			count(r.coldStarts),
			count(r.faults.ColdStartFailures),
			count(r.faults.Retries),
			count(r.avail.Dropped),
			pct(r.slo),
			pct(r.avail.Rate()),
		})
	}
	cold.Notes = append(cold.Notes,
		"failed container loads retry under bounded exponential backoff with deterministic jitter; exhausted budgets drop the batch")

	return &Report{ID: "chaos", Tables: []*Table{main, detail, cold}}, nil
}
