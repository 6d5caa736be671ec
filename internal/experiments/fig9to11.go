package experiments

import (
	"fmt"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/vm"
)

// fig9Availabilities are the spot-market scenarios of §5.
func fig9Availabilities() []vm.Availability {
	return []vm.Availability{vm.AvailabilityHigh, vm.AvailabilityModerate, vm.AvailabilityLow}
}

// normalizedCost reads a run's fleet cost normalized to an all-on-demand
// fleet, or "n/a" for a run without a fleet.
func normalizedCost(res *cluster.Result) Cell {
	if res.Cost == nil {
		return text("n/a")
	}
	return fixed(res.Cost.Normalized, 2)
}

// Fig9CostVsSLO reproduces Figure 9: normalized dollar cost and SLO
// compliance for the on-demand baselines, the Spot Only variant, and
// PROTEAN's hybrid procurement, under high/moderate/low spot
// availability.
func Fig9CostVsSLO(p Params) (*Report, error) {
	p = p.withDefaults()
	models := []*model.Model{
		model.MustByName("ShuffleNet V2"), // Figure 9a: an LI model
		model.MustByName("ResNet 50"),     // Figure 9b: an HI model
	}
	if p.Quick {
		models = models[1:]
	} else if p.Duration < 120 {
		// Spot revocations play out over minutes; give them room.
		p.Duration = 120
	}
	baselines := []NamedFactory{
		{Name: "Molecule (beta)", Factory: core.NewMoleculeBeta()},
		{Name: "Naive Slicing", Factory: core.NewNaiveSlicing(nil)},
		{Name: "INFless/Llama", Factory: core.NewINFlessLlama()},
	}
	variants := []struct {
		name string
		mode vm.Mode
	}{
		{"Spot Only", vm.ModeSpotOnly},
		{"PROTEAN", vm.ModeSpotPreferred},
	}
	// One batch per model: the availability-independent on-demand
	// baselines first, then availability×variant spot runs.
	type run struct {
		slo  float64
		cost Cell
	}
	read := func(res *cluster.Result) run {
		return run{slo: res.Recorder.SLOCompliance(), cost: normalizedCost(res)}
	}
	var tables []*Table
	for _, m := range models {
		var scs []Scenario
		rate := wikiRate(p.Duration)
		for _, sch := range baselines {
			scs = append(scs, Scenario{
				Label:  fmt.Sprintf("fig9 baseline %s", sch.Name),
				Strict: m,
				Rate:   rate,
				Policy: sch.Factory,
				VM:     &vm.Config{Mode: vm.ModeOnDemandOnly},
			})
		}
		for _, avail := range fig9Availabilities() {
			for _, variant := range variants {
				scs = append(scs, Scenario{
					Label:  fmt.Sprintf("fig9 %s/%s", variant.name, avail.Name),
					Strict: m,
					Rate:   rate,
					Policy: core.NewProtean(core.ProteanConfig{}),
					VM: &vm.Config{
						Mode:          variant.mode,
						Availability:  avail,
						CheckInterval: 45,
					},
				})
			}
		}
		// Every run of a model replays its one Wiki trace: only the
		// policy and the fleet differ.
		shareTrace(scs)
		runs, err := RunScenarios(p, scs, read)
		if err != nil {
			return nil, err
		}

		t := &Table{
			Title:   fmt.Sprintf("Figure 9: normalized cost vs SLO compliance — %s", m.Name()),
			Headers: []string{"availability", "scheme", "normalized cost", "SLO compliance"},
		}
		// On-demand baselines: availability-independent (run once,
		// averaged across the baseline schemes as the paper plots).
		baselineSLO := 0.0
		for _, r := range runs[:len(baselines)] {
			baselineSLO += r.slo
		}
		baselineSLO /= float64(len(baselines))

		k := len(baselines)
		for _, avail := range fig9Availabilities() {
			t.Rows = append(t.Rows, []Cell{
				text(avail.Name), text("Others (on-demand)"), fixed(1, 2), pct(baselineSLO),
			})
			for _, variant := range variants {
				r := runs[k]
				k++
				t.Rows = append(t.Rows, []Cell{
					text(avail.Name), text(variant.name), r.cost, pct(r.slo),
				})
			}
		}
		t.Notes = append(t.Notes,
			"cost normalized to an all-on-demand fleet of the same size (AWS Table 3 pricing)")
		tables = append(tables, t)
	}
	return &Report{ID: "fig9", Tables: tables}, nil
}

// Fig10ThroughputUtilization reproduces Figure 10: strict throughput per
// GPU (DenseNet 121) and GPU/memory utilization (EfficientNet-B0).
func Fig10ThroughputUtilization(p Params) (*Report, error) {
	p = p.withDefaults()
	thr := &Table{
		Title:   "Figure 10a: strict throughput (DenseNet 121)",
		Headers: []string{"scheme", "strict req/GPU/s", "total req/GPU/s", "SLO compliance"},
	}
	util := &Table{
		Title:   "Figure 10b: GPU utilization (EfficientNet-B0)",
		Headers: []string{"scheme", "GPU utilization (non-idle)", "slot-weighted", "memory"},
	}
	dense := model.MustByName("DenseNet 121")
	eff := model.MustByName("EfficientNet-B0")
	effective := p.Duration - p.Warmup
	schemes := PrimarySchemes()
	// Each run yields both tables' cells; the DenseNet runs fill the
	// throughput table and the EfficientNet runs the utilization table.
	runs, err := RunScenarios(p, gridScenarios([]*model.Model{dense, eff}, schemes, func(sc *Scenario) {
		sc.Rate = wikiRate(p.Duration)
	}), func(res *cluster.Result) [6]Cell {
		return [6]Cell{
			fixed(res.Recorder.Throughput(effective, res.Nodes, p.Duration), 1),
			fixed(res.Recorder.TotalThroughput(effective, res.Nodes, p.Duration), 1),
			slo(res),
			pct(res.BusyUtil), pct(res.ComputeUtil), pct(res.MemUtil),
		}
	})
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	for j, sch := range schemes {
		thr.Rows = append(thr.Rows, append([]Cell{text(sch.Name)}, runs[j][:3]...))
		util.Rows = append(util.Rows, append([]Cell{text(sch.Name)}, runs[len(schemes)+j][3:]...))
	}
	thr.Notes = append(thr.Notes,
		"throughput counts requests completed within the trace window (backlog excluded)")
	return &Report{ID: "fig10", Tables: []*Table{thr, util}}, nil
}

// Fig11ErraticTrace reproduces Figure 11: tail latency breakdown and SLO
// compliance for MobileNet under the bursty Twitter trace.
func Fig11ErraticTrace(p Params) (*Report, error) {
	p = p.withDefaults()
	m := model.MustByName("MobileNet")
	t := &Table{
		Title:   "Figure 11: Twitter trace — MobileNet strict P99 breakdown",
		Headers: []string{"scheme", "SLO", "P99", "min", "deficiency", "interference", "queue+cold"},
	}
	schemes := PrimarySchemes()
	sums, err := RunScenarios(p, gridScenarios([]*model.Model{m}, schemes, func(sc *Scenario) {
		sc.Rate = twitterRate(p.Duration, p.Seed)
	}), summarize)
	if err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	for j, sch := range schemes {
		sum := sums[j]
		b := sum.P99Breakdown
		t.Rows = append(t.Rows, []Cell{
			text(sch.Name), pct(sum.SLOCompliance), ms(sum.P99),
			ms(b.MinPossible), ms(b.Deficiency), ms(b.Interference), ms(b.Queue + b.ColdStart),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Twitter trace scaled to a %d rps peak; surges find schemes under-provisioned (queueing)", TwitterPeakRPS))
	return &Report{ID: "fig11", Tables: []*Table{t}}, nil
}
