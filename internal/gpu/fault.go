package gpu

import "protean/internal/obs"

// FailSlice injects an Xid-style slice failure: the victim slice's
// running jobs are killed (their completion timers cancelled, OnDone
// never fires), its pending jobs are displaced, and the slice goes
// offline — closed to admission and reported by Failed() — until its
// repair window elapses, when it reopens automatically.
//
// pick in [0, 1) selects the victim index within the current geometry,
// so the caller's RNG stays decoupled from the geometry's slice count.
// The returned killed (execution was in flight) and displaced (never
// started) jobs are the caller's to reroute, typically through each
// job's OnFail hook; the engine only detaches them.
//
// During reconfiguration downtime there are no slices to fail and the
// call is a no-op, as it is when the victim slice is already failed.
func (g *GPU) FailSlice(pick, repair float64) (killed, displaced []*Job) {
	if len(g.slices) == 0 {
		return nil, nil
	}
	idx := int(pick * float64(len(g.slices)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(g.slices) {
		idx = len(g.slices) - 1
	}
	sl := g.slices[idx]
	if sl.failed {
		return nil, nil
	}
	now := g.sim.Now()
	sl.account(now)
	killed = append(killed, sl.running...)
	for _, j := range sl.running {
		// The cancelled timer stays with the job, unqueued, so an owner
		// that pools the job can Reset and reuse it.
		j.timer.Cancel()
		j.running = false
		j.slice = nil
	}
	sl.running = nil
	sl.usedMem = 0
	displaced = sl.pending
	sl.pending = nil
	for _, j := range displaced {
		j.slice = nil
	}
	sl.failed = true
	sl.closed = true
	if tr := g.sim.Tracer(); tr.Enabled() {
		ev := obs.At(now, obs.KindFaultInject)
		ev.Node = g.ID
		ev.Slice = sl.index
		ev.Detail = "slice-failure"
		ev.Value = repair
		ev.Requests = len(killed) + len(displaced)
		tr.Emit(ev)
	}
	g.sim.MustAfter(repair, func() { g.repairSlice(sl) })
	// Killing the last running jobs may complete a pending drain.
	if g.reconfiguring {
		g.maybeBeginDowntime()
	}
	return killed, displaced
}

// repairSlice reopens a failed slice once its repair window elapses. A
// reconfiguration may have retired the slice in the meantime — repair
// then has nothing to do, since the replacement geometry's slices were
// born healthy.
func (g *GPU) repairSlice(sl *Slice) {
	if !sl.failed {
		return
	}
	live := false
	for _, cur := range g.slices {
		if cur == sl {
			live = true
			break
		}
	}
	if !live {
		return
	}
	sl.failed = false
	sl.closed = false
	if tr := g.sim.Tracer(); tr.Enabled() {
		ev := obs.At(g.sim.Now(), obs.KindRepair)
		ev.Node = g.ID
		ev.Slice = sl.index
		tr.Emit(ev)
	}
	sl.tryStart()
}
