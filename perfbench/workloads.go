package main

import (
	"fmt"
	"strings"

	"protean/internal/experiments"
	"protean/internal/model"
	"protean/internal/trace"
)

// workload is one set of inputs the benchmark runs. why says which
// layers it stresses; BENCHMARK.json carries the same sentence.
type workload struct {
	name, why string
	run       func(r *runner) error
}

// Workload parameters. The grid and the scale cell run shorter horizons
// than their paper-scale versions (60 s and two days) so that one run
// measures several passes within its time budget.
const (
	gridDuration  = 10    // virtual seconds per grid scenario
	gridWarmup    = 3     // virtual seconds of grid warm-up
	visionRPS     = 9000  // the vision experiments' mean rate
	visionSeconds = 60    // virtual seconds of the vision cell
	scaleRPS      = 35    // the 100x scale cell's mean rate
	scaleHorizon  = 21600 // virtual seconds (six hours) of the scale cell
)

func workloads() []workload {
	return []workload{
		gridWorkload(gridSpec{
			params:      experiments.Params{Nodes: 8, Duration: gridDuration, Warmup: gridWarmup, Quick: true, Parallel: 1, Shards: 1},
			extraSetups: 9,
			pin:         gridPinSeed1,
		}),
		cellWorkload("vision-gateway",
			"per-request layers (trace, batcher, exact recorder, GC) carry the work; placement and GPU code barely run",
			visionCell, 0),
		cellWorkload("scale-diurnal",
			"a long horizon makes timer ticks, GPU rebalance, autoscale and reconfiguration dominate; streamed trace, sketch recorder",
			scaleCell, 15),
		liveWorkload(liveSpec{openRate: 4000, openSeconds: 3, closedReqs: 60000, closedRate: 400, extraSetups: 19, pin: livePinSeed1}),
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// visionCell is ResNet 50 strict with its opposite-class best-effort
// pool at a constant 9000 rps for 60 s: the largest single scenario the
// paper grid runs, with a materialised trace and exact recorders.
func visionCell(seed int64) cell {
	c := scenarioCell("vision-gateway", seed, model.MustByName("ResNet 50"),
		trace.Constant(visionRPS), visionSeconds, 15, false)
	c.pin = visionPinSeed1
	return c
}

// scaleCell is the 100x shape of the scale sweep (experiments.ScaleCell):
// ResNet 50 under a daily Wiki diurnal at a 35 rps mean, streamed into
// sketch-mode recorders.
func scaleCell(seed int64) cell {
	rate := trace.ScaleToMean(trace.Diurnal(1, trace.DefaultWikiPeakToMean, 86400), scaleRPS, scaleHorizon)
	c := scenarioCell("scale-diurnal", seed, model.MustByName("ResNet 50"), rate, scaleHorizon, 15, true)
	c.stream = true
	c.pin = scalePinSeed1
	return c
}

// Seed-1 outcomes. A change that moves any of them changes what the
// program computes, not only how fast; it must re-pin them and say why.
var (
	// gridPinSeed1 is the sha256 of `protean-bench -run all -quick
	// -seed 1 -parallel 1 -duration 10 -warmup 3`.
	gridPinSeed1   = "ab028289df4f21b4ba6a5de27230449062fa04290fcbd48f3309ff0140c427b4"
	visionPinSeed1 = &tuple{Offered: 539155, Completed: 539155, Dropped: 0, Events: 555407, SLO: 0.9953692697808947, P99: 0.2943008058657455}
	scalePinSeed1  = &tuple{Offered: 755043, Completed: 755043, Dropped: 0, Events: 5893890, SLO: 0.9982166752785617, P99: 0.10751506085038744}
	livePinSeed1   = &livePin{Decisions: 60000, Fingerprint: "05c4ecacb6149a6a", Admitted: 35108, Shed: 1752, Rejected: 23140}
)

// cellWorkload runs one cell per pass for as long as the budget lasts,
// with extraSetups more timed set-ups per pass.
func cellWorkload(name, why string, mk func(seed int64) cell, extraSetups int) workload {
	return workload{name: name, why: why, run: func(r *runner) error { return r.runCells(mk(r.seed), extraSetups) }}
}

func (r *runner) runCells(c cell, extraSetups int) error {
	var first tuple
	pass := func(in *instruments) (*cellPass, error) {
		r.res.attempted++
		p, err := r.cellPass(c, r.root, 1, in)
		if err != nil {
			return nil, err
		}
		r.checkTuple(c, &first, p.tuple, "pass")
		return p, nil
	}
	if !r.traced {
		r.loop(r.seconds, func() error {
			if err := r.moreSetups(extraSetups, c.timedBuild); err != nil {
				return err
			}
			p, err := pass(nil)
			if err != nil {
				return err
			}
			r.res.setup = append(r.res.setup, p.setup)
			r.res.run = append(r.res.run, p.run+p.report)
			return nil
		})
		r.cellInfo(first)
		return nil
	}

	// Traced: plain passes under the CPU profile, then instrumented
	// passes, then the layer replays.
	profile := r.tempPath("cpu", ".pprof")
	var plainRuns, plainTotals, instTotals []float64
	err := r.plainPhase(profile, r.seconds/2, func() error {
		p, err := pass(nil)
		if err != nil {
			return err
		}
		plainRuns = append(plainRuns, p.run)
		plainTotals = append(plainTotals, p.run+p.report)
		return nil
	})
	if err != nil {
		return err
	}
	var inst *cellPass
	var in *instruments
	r.loop(r.seconds/2, func() error {
		i := newInstruments()
		p, err := pass(i)
		if err != nil {
			return err
		}
		inst, in = p, i
		instTotals = append(instTotals, p.run+p.report)
		return nil
	})
	if inst == nil || len(plainRuns) == 0 {
		return fmt.Errorf("%s: no traced pass completed", c.label)
	}
	r.res.layers["bench.tracing_overhead"] = median(instTotals)/median(plainTotals) - 1
	if err := r.cellLayers(c, r.root, plainRuns, first, inst, in); err != nil {
		return err
	}
	return r.attribute(profile)
}

// cellProbe measures a workload's representative cell when the
// workload's own passes are not cell runs (the grid, live-ingest): one
// plain pass and one instrumented pass, then the layer replays. It
// returns the instrumentation's overhead on the cell.
func (r *runner) cellProbe(c cell) (float64, error) {
	sp := r.spans.begin("cell "+c.label, "probe", r.root)
	defer r.spans.end(sp)
	r.res.attempted += 3 // plain, instrumented and two-shard passes
	plain, err := r.cellPass(c, sp, 1, nil)
	if err != nil {
		return 0, err
	}
	in := newInstruments()
	inst, err := r.cellPass(c, sp, 1, in)
	if err != nil {
		return 0, err
	}
	if inst.tuple != plain.tuple {
		r.res.fail("%s instrumented: got %+v, plain %+v", c.label, inst.tuple, plain.tuple)
	}
	overhead := (inst.run+inst.report)/(plain.run+plain.report) - 1
	return overhead, r.cellLayers(c, sp, []float64{plain.run}, plain.tuple, inst, in)
}

// attribute charges the CPU profile's samples to layers.
func (r *runner) attribute(profile string) error {
	shares, err := profileShares(profile)
	if err != nil {
		return err
	}
	for k, v := range shares {
		r.res.layers[k] = v
	}
	fmt.Fprintf(r.log, "perfbench: CPU profile %s: %s\n", profile, formatShares(shares))
	return nil
}

func formatShares(shares map[string]float64) string {
	var parts []string
	for _, d := range perLayer {
		if v, ok := shares[d.Name]; ok && v >= 0.5 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", strings.TrimPrefix(d.Name, "cpu."), v))
		}
	}
	return strings.Join(parts, ", ")
}

func newInstruments() *instruments {
	return &instruments{tracer: &countingTracer{}, policy: &policyStats{}}
}
