// Package chaos is PROTEAN's deterministic fault-injection subsystem:
// a virtual-time fault scheduler that stresses the availability story
// (§4.5 and the ROADMAP north-star) beyond the spot revocations the vm
// package already models.
//
// Five fault kinds are injected, all drawn from dedicated child
// streams derived (sim.Stream.Child) from the simulation's seeded
// stream, so a chaos schedule is a pure function of the run's seed —
// byte-identical across repeats and across any -parallel setting. The
// Poisson fault processes (slice failures, storms) draw from the
// injector's own schedule stream, which only ever runs in
// root-simulation context; the per-decision queries that execution can
// reach from a per-node lane (SampleReconfig, Straggler,
// ColdStartFailure, RetryDelay) draw from per-node child streams whose
// draw order is serialised by that node's own event order:
//
//   - GPU slice failure (Xid-style): in-flight jobs on one MIG slice
//     are killed and the slice goes offline for a repair window.
//   - Stuck or aborted MIG reconfiguration: the ~2 s downtime stretches
//     by a factor, or the geometry change fails and rolls back.
//   - Execution stragglers: a per-batch service-time multiplier spike.
//   - Cold-start failure: a container load fails after the boot delay
//     and must be retried under bounded exponential backoff.
//   - Correlated spot-preemption storms: a fraction of spot nodes
//     receive simultaneous revocation notices, layered on the vm.Fleet
//     notice machinery.
//
// The package is zero-dependency above sim and obs, reads no wall
// clock and no global rand, and is disabled by default: New returns a
// nil *Injector when Config.Enabled is false, every method on a nil
// injector is a safe no-op decision, and a disabled run draws zero
// random numbers and schedules zero timers — which is what keeps
// chaos-off runs byte-identical to a build without the subsystem.
package chaos

import (
	"errors"
	"fmt"
	"math"

	"protean/internal/obs"
	"protean/internal/sim"
)

// Fixed fault severities and the retry schedule. Config only sets how
// often faults strike; these set how hard.
const (
	// sliceRepair is the slice repair window in seconds.
	sliceRepair float64 = 15
	// reconfigStuckFactor is the downtime stretch of a stuck
	// reconfiguration.
	reconfigStuckFactor float64 = 5
	// stragglerFactor multiplies a straggler batch's execution time.
	stragglerFactor float64 = 4
	// stormFraction is the fraction of live spot nodes that receive a
	// revocation notice in one storm.
	stormFraction float64 = 0.5

	// Retryable failures (cold-start/dispatch) back off exponentially:
	// retryMaxAttempts attempts in all, including the first, waiting
	// retryBase seconds before the first retry and doubling after each,
	// every wait spread uniformly within ±retryJitter of its nominal
	// value by the node's seeded stream. The work is dropped once the
	// attempts are exhausted; the longest wait is 4 s.
	retryMaxAttempts         = 5
	retryBase        float64 = 0.5
	retryJitter      float64 = 0.2
)

// Config selects which faults to inject and how often. The zero value
// is fully disabled; DefaultConfig returns the reference fault mix the
// chaos experiment sweeps.
type Config struct {
	// Enabled is the master switch. When false the injector is nil and
	// the run is bit-for-bit identical to one without chaos.
	Enabled bool

	// SliceFailRate is the per-node Poisson rate (faults/second) of
	// Xid-style slice failures.
	SliceFailRate float64

	// ReconfigStuckProb is the probability a MIG reconfiguration gets
	// stuck and takes reconfigStuckFactor times the normal downtime.
	ReconfigStuckProb float64
	// ReconfigAbortProb is the probability a reconfiguration fails
	// outright: the downtime is still paid but the old geometry rolls
	// back.
	ReconfigAbortProb float64

	// StragglerProb is the per-batch probability of a service-time
	// spike.
	StragglerProb float64

	// ColdStartFailProb is the probability a container load fails
	// after paying its boot delay and must be retried.
	ColdStartFailProb float64

	// StormRate is the Poisson rate (storms/second) of correlated
	// spot-preemption storms.
	StormRate float64
}

// DefaultConfig is the reference fault mix of the chaos experiment:
// every fault kind active at a rate that visibly stresses a 60 s run
// without collapsing it.
func DefaultConfig() Config {
	return Config{
		Enabled:           true,
		SliceFailRate:     0.01,
		ReconfigStuckProb: 0.3,
		ReconfigAbortProb: 0.15,
		StragglerProb:     0.02,
		ColdStartFailProb: 0.2,
		StormRate:         0.03,
	}
}

// Scaled multiplies every fault rate and probability by f, capping
// probabilities at 1. Severities are fixed, so a sweep over f varies
// how often faults strike, not how hard. f = 0 keeps chaos
// enabled but fault-free — the control row of a sweep.
func (c Config) Scaled(f float64) Config {
	if f < 0 {
		f = 0
	}
	c.SliceFailRate *= f
	c.ReconfigStuckProb = capProb(c.ReconfigStuckProb * f)
	c.ReconfigAbortProb = capProb(c.ReconfigAbortProb * f)
	c.StragglerProb = capProb(c.StragglerProb * f)
	c.ColdStartFailProb = capProb(c.ColdStartFailProb * f)
	c.StormRate *= f
	return c
}

func capProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}

// Validate rejects configurations outside the model's domain.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.SliceFailRate < 0 || c.StormRate < 0 {
		return fmt.Errorf("chaos: negative fault rate (slice %v, storm %v)", c.SliceFailRate, c.StormRate)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ReconfigStuckProb", c.ReconfigStuckProb},
		{"ReconfigAbortProb", c.ReconfigAbortProb},
		{"StragglerProb", c.StragglerProb},
		{"ColdStartFailProb", c.ColdStartFailProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s %v out of [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// Stats counts the faults and resilience actions of one run.
type Stats struct {
	// SliceFaults is the number of injected slice failures.
	SliceFaults int `json:"sliceFaults"`
	// Storms is the number of preemption storms fired.
	Storms int `json:"storms"`
	// StormNotices is the total revocation notices storms forced.
	StormNotices int `json:"stormNotices"`
	// StuckReconfigs counts reconfigurations whose downtime stretched.
	StuckReconfigs int `json:"stuckReconfigs"`
	// AbortedReconfigs counts reconfigurations that rolled back.
	AbortedReconfigs int `json:"abortedReconfigs"`
	// Stragglers counts batches hit by a service-time spike.
	Stragglers int `json:"stragglers"`
	// ColdStartFailures counts failed container loads.
	ColdStartFailures int `json:"coldStartFailures"`
	// Retries counts backoff retries granted after failures.
	Retries int `json:"retries"`
}

// Targets is the cluster-side surface faults are delivered through.
// Implementations route each fault to the affected node and own the
// resulting resilience actions (orphan re-enqueue, degradation).
type Targets interface {
	// InjectSliceFault takes one MIG slice offline on the given node.
	// pick in [0, 1) selects the victim slice; repair is the offline
	// window in seconds.
	InjectSliceFault(node int, pick, repair float64)
	// StormDomains returns how many distinct storm domains exist (one
	// per marketplace provider; 1 for a single-provider fleet). The
	// injector draws a victim domain only when there is more than one,
	// so single-domain runs consume no extra randomness.
	StormDomains() int
	// InjectStorm forces revocation notices on a fraction of the live
	// spot nodes in the given storm domain, returning how many notices
	// were issued. Single-domain targets ignore domain.
	InjectStorm(domain int, frac float64) int
}

// nodeChaos is the per-node fault-decision state: the stream the
// node's queries draw from and the counters that node accumulated.
// Each node's queries only ever run in one of that node's lane events
// or in a root event, all on one goroutine, so no lock is needed and
// the draw order is the node's own event order.
type nodeChaos struct {
	rng   *sim.Stream
	stats Stats
}

// Injector schedules faults on the simulation clock and answers the
// per-decision fault queries threaded into the runtime layers. A nil
// *Injector is valid and means "chaos disabled": every query method
// returns the no-fault decision without drawing randomness.
type Injector struct {
	cfg Config
	sim *sim.Sim
	rng *sim.Stream // schedule stream: Poisson processes, root context only

	targets Targets
	perNode []*nodeChaos // one per node Start was given

	sliceTimer *sim.Timer
	stormTimer *sim.Timer
	stopped    bool

	stats Stats
}

// New builds an injector, or nil when cfg.Enabled is false. The
// injector's schedule stream is derived as Child("chaos") from the
// simulation's stream — derivation consumes no parent draws — so the
// fault schedule is independent of cluster activity yet fully
// determined by the run's seed.
func New(s *sim.Sim, cfg Config) (*Injector, error) {
	if !cfg.Enabled {
		return nil, nil
	}
	if s == nil {
		return nil, errors.New("chaos: nil sim")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, sim: s, rng: s.Rand().Child("chaos")}, nil
}

// Start arms the Poisson fault processes against t, whose worker
// nodes are 0 to nodes-1; slice failures are spread across them. Each
// node gets its own decision stream, derived by node id so the
// assignment does not depend on construction order. The per-node
// queries are valid only for those nodes. Safe on nil.
func (inj *Injector) Start(t Targets, nodes int) {
	if inj == nil || inj.stopped {
		return
	}
	inj.targets = t
	inj.perNode = make([]*nodeChaos, nodes)
	for i := range inj.perNode {
		inj.perNode[i] = &nodeChaos{rng: inj.rng.Child(fmt.Sprintf("node/%d", i))}
	}
	if inj.cfg.SliceFailRate > 0 && nodes > 0 {
		inj.armSliceFault()
	}
	if inj.cfg.StormRate > 0 {
		inj.armStorm()
	}
}

// Stop cancels pending fault timers and neutralizes every later query:
// the cluster calls it at the trace horizon so the post-horizon drain
// terminates (a live Poisson process would re-arm forever) and drains
// under fault-free conditions. Safe on nil.
func (inj *Injector) Stop() {
	if inj == nil || inj.stopped {
		return
	}
	inj.stopped = true
	if inj.sliceTimer != nil {
		inj.sliceTimer.Cancel()
		inj.sliceTimer = nil
	}
	if inj.stormTimer != nil {
		inj.stormTimer.Cancel()
		inj.stormTimer = nil
	}
}

// Stats returns the fault counters accumulated so far, summing the
// per-node decision counters into the schedule-level ones. Must be
// called in root context (it reads every node's counters). Safe on
// nil (returns zeros).
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	st := inj.stats
	for _, ns := range inj.perNode {
		st.add(ns.stats)
	}
	return st
}

// add accumulates the per-node decision counters of o into st.
func (st *Stats) add(o Stats) {
	st.StuckReconfigs += o.StuckReconfigs
	st.AbortedReconfigs += o.AbortedReconfigs
	st.Stragglers += o.Stragglers
	st.ColdStartFailures += o.ColdStartFailures
	st.Retries += o.Retries
}

// armSliceFault schedules the next slice failure: a Poisson process at
// SliceFailRate per node, aggregated across nodes, with a uniform
// victim node and slice pick drawn per event.
func (inj *Injector) armSliceFault() {
	rate := inj.cfg.SliceFailRate * float64(len(inj.perNode))
	delay := inj.rng.ExpFloat64() / rate
	inj.sliceTimer = inj.sim.MustAfter(delay, func() {
		if inj.stopped {
			return
		}
		node := inj.rng.Intn(len(inj.perNode))
		pick := inj.rng.Float64()
		inj.stats.SliceFaults++
		inj.targets.InjectSliceFault(node, pick, sliceRepair)
		inj.armSliceFault()
	})
}

// armStorm schedules the next correlated preemption storm.
func (inj *Injector) armStorm() {
	delay := inj.rng.ExpFloat64() / inj.cfg.StormRate
	inj.stormTimer = inj.sim.MustAfter(delay, func() {
		if inj.stopped {
			return
		}
		domain := 0
		if nd := inj.targets.StormDomains(); nd > 1 {
			domain = inj.rng.Intn(nd)
		}
		n := inj.targets.InjectStorm(domain, stormFraction)
		inj.stats.Storms++
		inj.stats.StormNotices += n
		inj.emit(obs.KindFaultInject, -1, 0, "preemption-storm", float64(n))
		inj.armStorm()
	})
}

// SampleReconfig decides the fate of one MIG reconfiguration as its
// downtime begins: the downtime multiplier (1 when healthy) and
// whether the geometry change aborts and rolls back. Implements the
// gpu engine's ReconfigFaults hook; may run on the node's lane (a
// drain can complete in a lane event), so it draws from the node's
// stream. Safe on nil.
func (inj *Injector) SampleReconfig(node int) (stretch float64, abort bool) {
	if inj == nil || inj.stopped {
		return 1, false
	}
	ns := inj.perNode[node]
	stretch = 1
	if ns.rng.Float64() < inj.cfg.ReconfigStuckProb {
		stretch = reconfigStuckFactor
		ns.stats.StuckReconfigs++
		inj.emit(obs.KindFaultInject, node, 0, "reconfig-stuck", stretch)
	}
	if ns.rng.Float64() < inj.cfg.ReconfigAbortProb {
		abort = true
		ns.stats.AbortedReconfigs++
		inj.emit(obs.KindFaultInject, node, 0, "reconfig-abort", 0)
	}
	return stretch, abort
}

// Straggler samples the service-time multiplier for one batch: 1 for a
// healthy batch, stragglerFactor for a spike. Runs in the node's
// context (dispatch at the root or a held-batch placement on the
// node's lane), hence the per-node stream. Safe on nil.
func (inj *Injector) Straggler(node int, batch uint64) float64 {
	if inj == nil || inj.stopped {
		return 1
	}
	ns := inj.perNode[node]
	if ns.rng.Float64() >= inj.cfg.StragglerProb {
		return 1
	}
	ns.stats.Stragglers++
	inj.emit(obs.KindFaultInject, node, batch, "straggler", stragglerFactor)
	return stragglerFactor
}

// ColdStartFailure samples whether a container load fails after its
// boot delay. Safe on nil.
func (inj *Injector) ColdStartFailure(node int, batch uint64) bool {
	if inj == nil || inj.stopped {
		return false
	}
	ns := inj.perNode[node]
	if ns.rng.Float64() >= inj.cfg.ColdStartFailProb {
		return false
	}
	ns.stats.ColdStartFailures++
	inj.emit(obs.KindFaultInject, node, batch, "cold-start-failure", 0)
	return true
}

// RetryDelay grants (or denies) retry number attempt on node —
// attempt counts failures so far, starting at 1 — returning the
// backoff to wait. The delay doubles per attempt from retryBase and
// carries deterministic uniform jitter drawn from the node's stream
// (retry scheduling runs on the node's lane).
// Safe on nil: a disabled injector denies every retry, but callers
// only reach here after a failure the same injector produced.
func (inj *Injector) RetryDelay(node, attempt int) (delay float64, ok bool) {
	if inj == nil || attempt >= retryMaxAttempts {
		return 0, false
	}
	ns := inj.perNode[node]
	d := retryBase * math.Pow(2, float64(attempt-1))
	d *= 1 + float64(retryJitter*(2*float64(ns.rng.Float64())-1))
	ns.stats.Retries++
	return d, true
}

// emit traces one chaos event at the simulation's current time.
func (inj *Injector) emit(kind obs.Kind, node int, batch uint64, detail string, value float64) {
	tr := inj.sim.Tracer()
	if !tr.Enabled() {
		return
	}
	ev := obs.At(inj.sim.Now(), kind)
	ev.Node = node
	ev.Batch = batch
	ev.Detail = detail
	ev.Value = value
	tr.Emit(ev)
}
