package experiments

import (
	"fmt"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/trace"
)

// The scale sweep stresses the simulator itself rather than the
// cluster: offered load is swept 10×/100×/1000× over a multi-day
// diurnal mix while the platform stays below its saturation knee, so
// peak memory and events/sec measure the event loop, the streaming
// arrival path, and the sketched recorders — not queue backlog.
const (
	// ScaleBaseRPS is the 1× offered load. At 100× the two-day horizon
	// offers ~6M requests; at 1000× ~60M.
	ScaleBaseRPS = 0.35
	// ScaleHorizon is the full-mode trace length: two days, so the BE
	// rotation, diurnal cycle, and Erratic-free long-horizon paths all
	// run at length.
	ScaleHorizon = 172800
	// ScaleQuickHorizon is the CI smoke horizon (two hours).
	ScaleQuickHorizon = 7200
	// ScaleHeapCeilingMB pins the 100× cell's peak heap: streaming
	// arrivals plus sketched recorders keep resident memory flat in the
	// request count, so millions of requests must fit well under this.
	// BenchmarkScaleCell100 fails if the run ever exceeds it, and the CI
	// smoke runs under a GOMEMLIMIT of the same size.
	ScaleHeapCeilingMB = 2048
)

// scaleScales is the offered-load sweep relative to ScaleBaseRPS.
func scaleScales(quick bool) []float64 {
	if quick {
		return []float64{10, 100}
	}
	return []float64{10, 100, 1000}
}

// scaleRate is a Wiki-like diurnal profile with a daily period, scaled
// to the cell's mean offered load.
func scaleRate(scale, duration float64) trace.RateFn {
	fn := trace.Diurnal(1, trace.DefaultWikiPeakToMean, 86400)
	return trace.ScaleToMean(fn, ScaleBaseRPS*scale, duration)
}

// ScaleCellResult is one sweep cell's outcome plus the simulator-side
// volume counters (deterministic; wall-clock rates are the benchmark's
// concern).
type ScaleCellResult struct {
	Result *cluster.Result
	// Events is the number of simulation events executed — identical
	// across repeats.
	Events uint64
}

// ScaleCell runs one scale-sweep cell: a streamed (never materialised)
// arrival trace into a sketch-mode cluster. p.Duration must be set by
// the caller (ScaleSweep and the benchmarks pick the horizon; tests may
// shrink it).
func ScaleCell(p Params, scale float64) (*ScaleCellResult, error) {
	p = p.withDefaults()
	label := fmt.Sprintf("scale %gx", scale)
	sc := Scenario{
		Label:  label,
		Strict: model.MustByName("ResNet 50"),
		Rate:   scaleRate(scale, p.Duration),
		Policy: core.NewProtean(core.ProteanConfig{}),
	}
	tc, s, c, err := buildScenario(p, sc, p.tracer(label), metrics.Sketches)
	if err != nil {
		return nil, err
	}
	// Streamed runs give the Oracle no window view; no scale cell uses it.
	st, err := trace.NewStream(tc)
	if err != nil {
		return nil, fmt.Errorf("experiments: open trace stream: %w", err)
	}
	res, err := c.RunStream(st, p.Duration)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", label, err)
	}
	return &ScaleCellResult{Result: res, Events: s.Executed()}, nil
}

// ScaleSweep is the `-run scale` experiment: offered load at
// 10×/100×/1000× of ScaleBaseRPS over a multi-day diurnal mix, each
// cell streamed and sketched. The table reports only deterministic
// quantities — request volumes, SLO attainment, sketch percentiles,
// executed events — so the report is byte-identical across repeats and
// -parallel settings; events/sec and peak heap are wall-clock
// measurements, taken by BenchmarkScaleCell and perfbench's
// scale-diurnal workload.
func ScaleSweep(p Params) (*Report, error) {
	p = p.withDefaults()
	if p.Duration <= 60 {
		// withDefaults' 60 s (30 s quick) default is a signal the caller
		// did not choose a horizon; the sweep's own is multi-day.
		p.Duration = ScaleHorizon
		if p.Quick {
			p.Duration = ScaleQuickHorizon
		}
	}
	t := &Table{
		Title: "Scale sweep: streaming arrivals + sketched recorders",
		Headers: []string{"scale", "mean rps", "offered", "completed", "dropped",
			"SLO", "strict P99", "events", "pool hits"},
	}
	for _, scale := range scaleScales(p.Quick) {
		cell, err := ScaleCell(p, scale)
		if err != nil {
			return nil, err
		}
		res := cell.Result
		t.Rows = append(t.Rows, []Cell{
			text(fmt.Sprintf("%gx", scale)),
			text(fmt.Sprintf("%.1f", ScaleBaseRPS*scale)),
			count(res.Availability.Offered),
			count(res.Availability.Completed),
			count(res.Availability.Dropped),
			pct(res.Recorder.SLOCompliance()),
			ms(res.Recorder.Strict().Percentile(99)),
			count(cell.Events),
			count(res.Pool.Hits),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("arrivals are pulled from trace.Stream (never materialised) and recorded into %.0f%%-accuracy quantile sketches; peak heap stays flat in the request count", metrics.SketchAlpha*100),
		fmt.Sprintf("offered load stays below the cluster's saturation knee by design: the sweep measures the simulator, not queue backlog (horizon %.0fs)", p.Duration),
		"events/sec and peak heap are wall-clock measurements: see perfbench's scale-diurnal workload (make bench)")
	return &Report{ID: "scale", Tables: []*Table{t}}, nil
}
