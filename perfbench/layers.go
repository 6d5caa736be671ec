package main

import (
	"fmt"
	"time"

	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/queue"
	"protean/internal/sim"
	"protean/internal/trace"
)

// Replay caps keep a traced run's memory bounded on the long cells.
const (
	replayArrivalCap = 1_000_000
	replaySampleCap  = 400_000
)

// cellLayers fills the per-layer metrics of a workload's representative
// cell: the simulation seconds of its plain passes (plainRuns, whose
// outcome was want), counts from one instrumented pass, one more pass
// at two shards, and replays of the cell's own arrivals and samples
// into standalone trace, queue and metrics calls.
func (r *runner) cellLayers(c cell, parent int, plainRuns []float64, want tuple, inst *cellPass, in *instruments) error {
	L := r.res.layers
	runS := median(plainRuns)
	events := want.Events
	L["cluster.run_s"] = runS
	L["sim.events"] = float64(events)
	L["sim.ns_per_event"] = runS * 1e9 / float64(max(events, 1))

	sp := r.spans.begin("shards=2", "replay.sim", parent)
	p2, err := r.cellPass(c, sp, 2, nil)
	r.spans.end(sp)
	if err != nil {
		return fmt.Errorf("%s at 2 shards: %w", c.label, err)
	}
	if p2.tuple != want {
		r.res.fail("%s at 2 shards: got %+v, 1 shard %+v", c.label, p2.tuple, want)
	}
	L["sim.shard2_speedup"] = runS / p2.run

	ps := in.policy
	L["core.place_calls"] = float64(ps.placeCalls)
	L["core.place_ns"] = float64(ps.placeTime.Nanoseconds()) / float64(max(ps.placeCalls, 1))
	L["core.place_fail_frac"] = float64(ps.placeFails) / float64(max(ps.placeCalls, 1))
	L["core.geometry_calls"] = float64(ps.geomCalls)
	L["core.geometry_ns"] = float64(ps.geomTime.Nanoseconds()) / float64(max(ps.geomCalls, 1))
	L["core.geometry_change_frac"] = float64(ps.geomChanges) / float64(max(ps.geomCalls, 1))

	tr, res := in.tracer, inst.result
	L["gpu.batches"] = float64(tr.count(obs.KindExecStart))
	L["gpu.rebalances"] = float64(tr.count(obs.KindSlowdown))
	L["gpu.reconfigs"] = float64(tr.count(obs.KindReconfigEnd))
	L["cluster.dispatches"] = float64(tr.count(obs.KindDispatch))
	L["cluster.dropped"] = float64(res.Dropped)
	L["autoscale.cold_starts"] = float64(res.ColdStarts)
	L["autoscale.events"] = float64(tr.count(obs.KindAutoscale))
	L["vm.notices"] = float64(tr.count(obs.KindVMNotice))
	L["vm.leases"] = float64(tr.count(obs.KindVMLease))
	L["market.price_ticks"] = float64(tr.count(obs.KindPriceTick))
	if res.Market != nil {
		L["market.usd"] = res.Market.TotalDollars
	}
	L["metrics.samples"] = float64(res.Recorder.Len())

	sp = r.spans.begin("trace", "replay.trace", parent)
	nsPerReq, arrivals, err := replayTrace(c)
	r.spans.end(sp)
	if err != nil {
		return err
	}
	L["trace.ns_per_req"] = nsPerReq
	if c.fixed != nil {
		arrivals = c.fixed
	}

	sp = r.spans.begin("queue", "replay.queue", parent)
	addNs, batches, full, err := replayQueue(c.seed, arrivals)
	r.spans.end(sp)
	if err != nil {
		return err
	}
	L["queue.add_ns"] = addNs
	L["queue.batches"] = float64(batches)
	L["queue.full_frac"] = float64(full) / float64(max(batches, 1))

	sp = r.spans.begin("metrics", "replay.metrics", parent)
	mr := replayMetrics(tr.execEnds, c.warmup)
	r.spans.end(sp)
	L["metrics.add_ns"] = mr.addNs
	L["metrics.merge_ms"] = mr.mergeMs
	L["metrics.percentile_ms"] = mr.percentileMs
	L["metrics.sketch_add_ns"] = mr.sketchAddNs
	return nil
}

// replayTrace regenerates the cell's arrival process and returns the
// host nanoseconds per generated request, plus the arrivals themselves
// (at most replayArrivalCap of a streamed process) for the queue replay.
func replayTrace(c cell) (float64, []trace.Request, error) {
	if !c.stream {
		t0 := time.Now()
		reqs, err := trace.Generate(c.arrivals)
		if err != nil {
			return 0, nil, err
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(max(len(reqs), 1)), reqs, nil
	}
	// Time a bare drain, then collect arrivals in a second, untimed one.
	st, err := trace.NewStream(c.arrivals)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
	st, err = trace.NewStream(c.arrivals)
	if err != nil {
		return 0, nil, err
	}
	var reqs []trace.Request
	for q, ok := st.Next(); ok && len(reqs) < replayArrivalCap; q, ok = st.Next() {
		reqs = append(reqs, q)
	}
	return ns, reqs, nil
}

// replayQueue feeds arrivals into a standalone batcher on its own
// simulator — one self-rescheduling pump timer, as the cluster's gateway
// does — and returns host nanoseconds per arrival, the batches sealed
// and how many of them sealed full.
func replayQueue(seed int64, arrivals []trace.Request) (addNs float64, batches, full int, err error) {
	if len(arrivals) == 0 {
		return 0, 0, 0, nil
	}
	s := sim.New(seed)
	var b *queue.Batcher
	b, err = queue.NewBatcher(s, queue.DefaultWindow, func(bt *queue.Batch) {
		batches++
		if bt.Size() >= bt.Model.BatchSize() {
			full++
		}
		b.Release(bt)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var addErr error
	i := 0
	var pump *sim.Timer
	pump, err = s.At(arrivals[0].Arrival, func() {
		if err := b.Add(arrivals[i]); err != nil && addErr == nil {
			addErr = err
		}
		i++
		if i < len(arrivals) {
			if err := pump.Reschedule(arrivals[i].Arrival); err != nil && addErr == nil {
				addErr = err
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, 0, 0, err
	}
	b.Flush()
	addNs = float64(time.Since(t0).Nanoseconds()) / float64(len(arrivals))
	return addNs, batches, full, addErr
}

type metricsReplay struct {
	addNs, mergeMs, percentileMs, sketchAddNs float64
}

// replayMetrics rebuilds the cell's per-request samples from its
// exec-end events — one sample per request, at the job's latency,
// skipping completions inside the warm-up — and replays them through
// the recorder paths the cluster uses: exact Adds into per-node
// recorders, the 8-way Merge of cluster.drainAll, the first strict P99
// on the merged recorder, and sketch-mode Adds.
func replayMetrics(ends []execEnd, warmup float64) metricsReplay {
	slo := map[string]float64{}
	var samples []metrics.Sample
	var nodes []int
	maxNode := 0
	for _, e := range ends {
		if e.t < warmup {
			continue
		}
		if _, ok := slo[e.model]; !ok {
			if m, ok := model.ByName(e.model); ok {
				slo[e.model] = m.SLO(model.DefaultSLOMultiplier)
			}
		}
		s := metrics.Sample{Model: e.model, Strict: e.strict, Latency: e.latency, SLO: slo[e.model], Completed: e.t, Weight: 1}
		for k := 0; k < e.requests && len(samples) < replaySampleCap; k++ {
			samples = append(samples, s)
			nodes = append(nodes, e.node)
		}
		maxNode = max(maxNode, e.node)
	}
	var out metricsReplay
	if len(samples) == 0 {
		return out
	}
	perNode := make([]metrics.Recorder, maxNode+1)
	t0 := time.Now()
	for i := range samples {
		perNode[nodes[i]].Add(samples[i])
	}
	out.addNs = float64(time.Since(t0).Nanoseconds()) / float64(len(samples))

	merged := &metrics.Recorder{}
	t0 = time.Now()
	for i := range perNode {
		merged.Merge(&perNode[i])
	}
	out.mergeMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	t0 = time.Now()
	_ = merged.Strict().Percentile(99)
	out.percentileMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	sk := metrics.NewSketchRecorder()
	t0 = time.Now()
	for i := range samples {
		sk.Add(samples[i])
	}
	out.sketchAddNs = float64(time.Since(t0).Nanoseconds()) / float64(len(samples))
	return out
}
