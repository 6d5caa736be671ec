package main

import (
	"errors"
	"fmt"
	"time"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/sim"
	"protean/internal/trace"
)

// cell is one simulated cluster run the benchmark builds itself, the
// way internal/experiments builds a scenario: one seeded simulator, a
// cluster on it, and an arrival process.
type cell struct {
	label    string
	seed     int64
	duration float64
	// warmup is the cluster's metrics warm-up: requests arriving before
	// it are not recorded.
	warmup float64
	// arrivals is the generated arrival process; stream pulls it from
	// trace.NewStream instead of materialising it.
	arrivals trace.Config
	stream   bool
	// fixed, when set, replaces the generated arrivals (live-ingest
	// replays the requests its plane admitted).
	fixed []trace.Request
	// config returns the cluster configuration except the policy; it may
	// attach components (a marketplace) to the simulator first.
	config func(s *sim.Sim) (cluster.Config, error)
	policy core.Factory
	// pin is the outcome at seed 1, when the cell's outcome is pinned.
	pin *tuple
}

// scenarioCell builds a cell exactly like experiments.buildScenario
// builds a scenario: a strict model at a 50% strict share with its
// opposite-class best-effort pool, both pre-warmed four containers per
// node, on eight PROTEAN nodes.
func scenarioCell(label string, seed int64, strict *model.Model, rate trace.RateFn, duration, warmup float64, sketch bool) cell {
	pool := model.OppositeClassPool(strict)
	prewarm := append(append([]*model.Model{}, pool...), strict)
	return cell{
		label:    label,
		seed:     seed,
		duration: duration,
		warmup:   warmup,
		arrivals: trace.Config{
			Rate:     rate,
			Mix:      trace.Mix{StrictFrac: 0.5, Strict: strict, BEPool: pool},
			Duration: duration,
			Seed:     seed,
		},
		config: func(*sim.Sim) (cluster.Config, error) {
			return cluster.Config{
				Nodes:           8,
				Warmup:          warmup,
				PreWarm:         prewarm,
				PreWarmCount:    4,
				SketchQuantiles: sketch,
			}, nil
		},
		policy: core.NewProtean(core.ProteanConfig{}),
	}
}

// wikiRate is the grid's diurnal Wiki-like profile at the vision mean.
func wikiRate(mean, duration float64) trace.RateFn {
	return trace.ScaleToMean(trace.Diurnal(1, trace.DefaultWikiPeakToMean, duration), mean, duration)
}

// tuple is a cell's simulated outcome. It is deterministic for a seed,
// at any shard count and with or without instrumentation, so every
// pass of a run must reproduce it exactly.
type tuple struct {
	Offered, Completed, Dropped int
	Events                      uint64
	SLO, P99                    float64
}

// instruments are the traced pass's hooks: a counting tracer on the
// simulator and a timing wrapper around every node's policy.
type instruments struct {
	tracer *countingTracer
	policy *policyStats
}

// cellPass is one built-and-run cell with its timings.
type cellPass struct {
	setup, run, report float64 // host seconds
	result             *cluster.Result
	tuple              tuple
}

// builtCell is a cell whose simulator, cluster and arrivals exist but
// have not run.
type builtCell struct {
	sim     *sim.Sim
	cluster *cluster.Cluster
	reqs    []trace.Request
	stream  *trace.Stream
}

// build sets the cell up: the seeded simulator at the given shard
// count, the cluster on it, and the arrivals.
func (c cell) build(shards int, inst *instruments) (*builtCell, error) {
	s := sim.New(c.seed)
	s.SetWorkers(shards)
	pol := c.policy
	if inst != nil {
		s.SetTracer(inst.tracer)
		pol = inst.policy.wrap(pol)
	}
	cfg, err := c.config(s)
	if err != nil {
		return nil, err
	}
	cfg.Policy = pol
	cl, err := cluster.New(s, cfg)
	if err != nil {
		return nil, err
	}
	b := &builtCell{sim: s, cluster: cl}
	switch {
	case c.fixed != nil:
		b.reqs = c.fixed
	case c.stream:
		b.stream, err = trace.NewStream(c.arrivals)
	default:
		b.reqs, err = trace.Generate(c.arrivals)
	}
	return b, err
}

// timedBuild sets the cell up once, as a pass would, and returns the
// host seconds it took; the built cell is dropped.
func (c cell) timedBuild() (float64, error) {
	t0 := time.Now()
	_, err := c.build(1, nil)
	return time.Since(t0).Seconds(), err
}

// cellPass builds and runs the cell once: setup is the simulator,
// cluster and arrivals; run is the simulation; report reads SLO
// attainment and the strict P99 off the merged recorder.
func (r *runner) cellPass(c cell, parent, shards int, inst *instruments) (*cellPass, error) {
	sp := r.spans.begin(c.label, "pass", parent)
	defer r.spans.end(sp)

	t0 := time.Now()
	s0 := r.spans.begin("setup", "setup", sp)
	b, err := c.build(shards, inst)
	r.spans.end(s0)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()

	s1 := r.spans.begin("run", "run", sp)
	var res *cluster.Result
	if b.stream != nil {
		res, err = b.cluster.RunStream(b.stream, c.duration)
	} else {
		res, err = b.cluster.Run(b.reqs, c.duration)
	}
	r.spans.end(s1)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()

	s2 := r.spans.begin("report", "report", sp)
	tup := tuple{
		Offered:   res.Availability.Offered,
		Completed: res.Availability.Completed,
		Dropped:   res.Dropped,
		Events:    b.sim.Executed(),
		SLO:       res.Recorder.SLOCompliance(),
		P99:       res.Recorder.Strict().Percentile(99),
	}
	r.spans.end(s2)
	t3 := time.Now()

	return &cellPass{
		setup:  t1.Sub(t0).Seconds(),
		run:    t2.Sub(t1).Seconds(),
		report: t3.Sub(t2).Seconds(),
		result: res,
		tuple:  tup,
	}, nil
}

// checkTuple holds every pass of a run to the first pass's outcome and,
// at seed 1, to the pinned one.
func (r *runner) checkTuple(c cell, first *tuple, got tuple, what string) {
	if *first == (tuple{}) {
		*first = got
		fmt.Fprintf(r.log, "perfbench: %s outcome: %+v\n", c.label, got)
		if c.pin != nil && r.seed == 1 && got != *c.pin {
			r.res.fail("%s seed 1: got %+v, pinned %+v", c.label, got, *c.pin)
		}
		return
	}
	if got != *first {
		r.res.fail("%s %s: got %+v, first pass %+v", c.label, what, got, *first)
	}
}

// cellInfo records, beside the end-to-end metrics, the cell's simulated
// outcome and the simulator's throughput: offered requests per host
// second of the median pass.
func (r *runner) cellInfo(t tuple) {
	if len(r.res.run) == 0 {
		return
	}
	I := r.res.info
	I["req_per_s"] = float64(t.Offered) / median(r.res.run)
	I["slo_attainment"] = t.SLO
	I["strict_p99_ms"] = t.P99 * 1000
}

// countingTracer counts lifecycle events by kind and keeps the
// exec-end events the metrics replay rebuilds samples from. The
// simulator delivers lane events to the root tracer at barriers, so
// Emit is only ever called from one goroutine.
type countingTracer struct {
	kinds    [256]int
	execEnds []execEnd
}

// execEnd is the part of a KindExecEnd event the metrics replay needs.
type execEnd struct {
	t        float64
	node     int
	model    string
	strict   bool
	requests int
	latency  float64
}

func (t *countingTracer) Enabled() bool { return true }

func (t *countingTracer) Emit(ev obs.Event) {
	t.kinds[ev.Kind]++
	if ev.Kind == obs.KindExecEnd && ev.Phases != nil {
		t.execEnds = append(t.execEnds, execEnd{
			t: ev.T, node: ev.Node, model: ev.Model, strict: ev.Strict,
			requests: ev.Requests, latency: ev.Phases.Total(),
		})
	}
}

func (t *countingTracer) count(k obs.Kind) int { return t.kinds[k] }

// policyStats times every Place and DesiredGeometry call of the
// policies a wrapped factory builds. Nodes run on the simulator's
// goroutine at one shard, so the counters need no locking.
type policyStats struct {
	placeCalls, placeFails int
	placeTime              time.Duration
	geomCalls, geomChanges int
	geomTime               time.Duration
}

func (st *policyStats) wrap(f core.Factory) core.Factory {
	return func() core.Policy { return timedPolicy{Policy: f(), st: st} }
}

// timedPolicy wraps one node's policy. It forwards the optional
// reconfiguration-downtime override, so wrapping never changes what the
// cluster does.
type timedPolicy struct {
	core.Policy
	st *policyStats
}

func (p timedPolicy) Place(g *gpu.GPU, m *model.Model, strict bool) (*gpu.Slice, error) {
	t0 := time.Now()
	sl, err := p.Policy.Place(g, m, strict)
	p.st.placeTime += time.Since(t0)
	p.st.placeCalls++
	if errors.Is(err, core.ErrNoSlice) {
		p.st.placeFails++
	}
	return sl, err
}

func (p timedPolicy) DesiredGeometry(g *gpu.GPU, view core.QueueView) (gpu.Geometry, bool) {
	t0 := time.Now()
	geom, change := p.Policy.DesiredGeometry(g, view)
	p.st.geomTime += time.Since(t0)
	p.st.geomCalls++
	if change {
		p.st.geomChanges++
	}
	return geom, change
}

func (p timedPolicy) ReconfigDowntime() (float64, bool) {
	if ov, ok := p.Policy.(core.DowntimeOverrider); ok {
		return ov.ReconfigDowntime()
	}
	return 0, false
}
