package gpu

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"protean/internal/obs"
	"protean/internal/sim"
)

// SharingMode selects how jobs co-resident on one slice are executed.
type SharingMode int

const (
	// ShareMPS runs jobs concurrently via MPS spatial sharing; jobs
	// interfere through memory-bandwidth contention per Eq. (1).
	ShareMPS SharingMode = iota + 1
	// ShareTimeSlice runs jobs one at a time (pure time sharing); there
	// is no interference but jobs queue behind each other.
	ShareTimeSlice
)

// String implements fmt.Stringer.
func (m SharingMode) String() string {
	switch m {
	case ShareMPS:
		return "mps"
	case ShareTimeSlice:
		return "time-slice"
	default:
		return fmt.Sprintf("SharingMode(%d)", int(m))
	}
}

// Workload describes the execution characteristics the engine needs from a
// job's model. Implemented by *model.Model.
type Workload interface {
	// Name identifies the workload.
	Name() string
	// SoloTime is the isolated batch execution time (seconds) on the
	// given profile, i.e. Solo_7g × RDF(profile).
	SoloTime(p Profile) float64
	// FBR is the job's Fractional Bandwidth Requirement (bw × sm
	// aggregate, as a fraction of the bandwidth of the partition it
	// runs on).
	FBR() float64
	// ComputeDemand is the fraction of a full GPU's SMs one batch can
	// utilize; co-located batches whose summed demand exceeds the
	// slice's SMs contend for compute.
	ComputeDemand() float64
	// Cache returns the workload's cache-pollution (harm inflicted on
	// co-runners) and cache-sensitivity (harm received) coefficients in
	// [0, 1].
	Cache() (pollution, sensitivity float64)
	// MemGB is the memory footprint of one batch on the given profile.
	MemGB(p Profile) float64
}

// Breakdown decomposes a job's end-to-end latency; see obs.Phases.
type Breakdown = obs.Phases

// Job is one request batch executing (or waiting to execute) on a GPU
// slice.
type Job struct {
	// W is the workload (model) this batch belongs to.
	W Workload
	// Strict marks batches composed of strict-SLO requests.
	Strict bool
	// Requests is the number of user requests in the batch (used to
	// weight metrics).
	Requests int
	// SMFrac caps the fraction of the slice's SMs the job may use
	// (GPUlet-style MPS limits). Zero means no cap (1.0).
	SMFrac float64
	// Scale scales the batch's work and bandwidth demand relative to a
	// full batch (partial batches sealed by the batching window do less
	// work). Zero means 1.0.
	Scale float64
	// Jitter multiplies the batch's intrinsic execution time
	// (data-dependent service variability). Zero means 1.0.
	Jitter float64
	// Enqueued is the virtual time the batch became ready to run
	// (after batching and cold start).
	Enqueued float64
	// ColdStart is boot latency already incurred by the batch before
	// Enqueued; it is carried into the latency breakdown.
	ColdStart float64
	// OnDone, if set, is invoked when the batch completes.
	OnDone func(*Job)
	// OnFail, if set, lets the owner reroute the batch when an injected
	// slice failure kills or displaces the job before completion (the
	// engine never invokes OnDone for such a job). The engine itself
	// does not call OnFail; FailSlice returns the affected jobs and the
	// caller dispatches them through this hook.
	OnFail func(*Job)
	// TraceID correlates the job's lifecycle events with the batch that
	// produced it (queue.Batch.ID); 0 means untraced.
	TraceID uint64
	// Ctx is an opaque owner context the engine never touches. The
	// cluster stores the originating batch here so its completion
	// callbacks can be hoisted per node instead of closed over per job.
	Ctx any

	slice       *Slice
	started     float64
	finished    float64
	remaining   float64 // solo-on-slice seconds of work left
	slow        float64 // current slowdown multiplier (>= 1)
	lastAdvance float64
	running     bool
	done        bool

	// timer is the job's completion timer and fire its callback. Both
	// outlive a run and Reset: fire is bound once per Job object (in
	// Submit), the timer is created at the object's first start and
	// re-armed with Reschedule at every later one, so a pooled job's
	// start-to-completion path allocates nothing. A kept timer is reused
	// only on the sim it was created on (see start) and is never queued
	// while the job is idle.
	timer *sim.Timer
	fire  func()

	// Residency invariants, cached once at start(). Each is constant for
	// as long as the job occupies its slice (the workload, scale, SM cap
	// and slice profile are all fixed at start), so the rebalance hot
	// path reads plain struct fields instead of re-deriving them through
	// interface calls. Only provably residency-invariant values may be
	// cached here — see DESIGN.md, "Performance model".
	invFBR    float64 // effFBR()
	invDemand float64 // effComputeDemand(slice.Prof)
	invPoll   float64 // W.Cache() pollution
	invSens   float64 // W.Cache() sensitivity
	invMemGB  float64 // W.MemGB(slice.Prof)
	invCached bool
}

// Reset clears a finished job for freelist reuse. It drops every
// pointer the owner set (workload, callbacks, context) and the slice,
// and keeps only the job's own completion timer and its bound callback,
// which the next start re-arms in place. Only safe once the engine has
// fully detached the job: after OnDone has returned (completion
// detaches before the callback), or after the owner is done rerouting
// a failed job. Resetting a job whose timer is still queued panics.
func (j *Job) Reset() {
	if j.timer.Cancel() {
		panic("gpu: Reset of a job whose completion timer is queued")
	}
	*j = Job{timer: j.timer, fire: j.fire}
}

// cacheInvariants snapshots the residency-invariant quantities for a job
// starting on a slice with profile p. The cached values are bitwise
// identical to what the lazy accessors would return on every later call,
// because each accessor is a pure function of fields frozen at start.
func (j *Job) cacheInvariants(p Profile) {
	j.invFBR = j.effFBR()
	j.invDemand = j.effComputeDemand(p)
	j.invPoll, j.invSens = j.W.Cache()
	j.invMemGB = j.W.MemGB(p)
	j.invCached = true
}

func (j *Job) smFrac() float64 {
	if j.SMFrac <= 0 || j.SMFrac > 1 {
		return 1
	}
	return j.SMFrac
}

func (j *Job) scale() float64 {
	if j.Scale <= 0 || j.Scale > 1 {
		return 1
	}
	return j.Scale
}

func (j *Job) jitter() float64 {
	if j.Jitter <= 0 {
		return 1
	}
	return j.Jitter
}

// effProfile is the profile the job effectively executes on, accounting
// for an SM cap.
func (j *Job) effProfile(p Profile) Profile { return Scaled(p, j.smFrac()) }

// effFBR is the job's bandwidth demand contribution, scaled by the batch
// fill. MPS active-thread caps do not reduce it: memory-bound kernels
// keep saturating bandwidth from fewer SMs (§2.2 — cache and bandwidth
// stay shared under strategic MPS).
func (j *Job) effFBR() float64 { return j.W.FBR() * j.scale() }

// effComputeDemand is the fraction of the slice's SMs the job demands:
// the full-GPU demand rescaled to the slice's SM count, bounded by any
// MPS active-thread cap and by the slice itself.
func (j *Job) effComputeDemand(p Profile) float64 {
	d := j.W.ComputeDemand() * j.scale() / p.ComputeFrac
	return math.Min(math.Min(d, j.smFrac()), 1)
}

// Started returns the virtual time execution began (valid once running or
// done).
func (j *Job) Started() float64 { return j.started }

// Finished returns the completion time (valid once done).
func (j *Job) Finished() float64 { return j.finished }

// Slice returns the slice the job was placed on (nil before placement).
func (j *Job) Slice() *Slice { return j.slice }

// Breakdown returns the latency decomposition of a completed job.
func (j *Job) Breakdown() Breakdown {
	if !j.done {
		return Breakdown{}
	}
	minPossible := float64(j.W.SoloTime(Profile7g) * j.scale() * j.jitter())
	soloOnSlice := float64(j.W.SoloTime(j.effProfile(j.slice.Prof)) * j.scale() * j.jitter())
	return Breakdown{
		Queue:        math.Max(0, j.started-j.Enqueued),
		ColdStart:    j.ColdStart,
		MinPossible:  minPossible,
		Deficiency:   math.Max(0, soloOnSlice-minPossible),
		Interference: math.Max(0, (j.finished-j.started)-soloOnSlice),
	}
}

// Engine errors.
var (
	// ErrJobTooLarge reports a batch whose memory footprint exceeds the
	// slice's capacity outright.
	ErrJobTooLarge = errors.New("gpu: job memory exceeds slice capacity")
	// ErrSliceClosed reports submission to a slice that is draining for
	// reconfiguration or already replaced.
	ErrSliceClosed = errors.New("gpu: slice closed for reconfiguration")
	// ErrReconfiguring reports a reconfiguration request while one is
	// already in flight.
	ErrReconfiguring = errors.New("gpu: reconfiguration already in progress")
)

// Slice is one MIG instance: a partition of the GPU executing jobs either
// concurrently (MPS) or one at a time (time sharing).
type Slice struct {
	// Prof is the MIG profile backing the slice.
	Prof Profile
	// Mode is the sharing mode within the slice.
	Mode SharingMode

	sim     *sim.Sim
	gpu     *GPU
	index   int
	running []*Job
	pending []*Job
	usedMem float64
	closed  bool
	failed  bool

	lastAccount  float64
	busyIntegral float64
	memIntegral  float64
}

// GPU returns the owning GPU.
func (sl *Slice) GPU() *GPU { return sl.gpu }

// AvailableMemGB is the memory left for additional jobs.
func (sl *Slice) AvailableMemGB() float64 { return sl.Prof.MemGB - sl.usedMem }

// Load returns the number of running plus pending jobs.
func (sl *Slice) Load() int { return len(sl.running) + len(sl.pending) }

// Failed reports whether the slice is offline for fault repair.
// Placement policies skip failed slices (graceful degradation); the
// slice reopens automatically once its repair window elapses.
func (sl *Slice) Failed() bool { return sl.failed }

// EachRunning calls fn for every running job in start order, without
// allocating. Intended for hot paths (placement scoring, admission scans)
// that visit resident jobs on every decision. fn must not mutate the
// slice's job set.
//
//protean:hotpath
func (sl *Slice) EachRunning(fn func(*Job)) {
	for _, j := range sl.running {
		fn(j)
	}
}

// EachPending calls fn for every admitted-but-not-started job in queue
// order, without allocating. fn must not mutate the slice's job set.
//
//protean:hotpath
func (sl *Slice) EachPending(fn func(*Job)) {
	for _, j := range sl.pending {
		fn(j)
	}
}

// Slowdown is the worst interference multiplier currently in force on
// the slice: the max over running jobs of the full per-job multiplier
// (bandwidth contention with cache-pollution amplification, and SM
// contention — everything slowdownFor applies). Idle and time-shared
// slices report 1.
//
//protean:hotpath
//lint:ignore deadcode TestSlowdownReportsFullPerJobMultiplier and TestHotpathAnnotationsPinned in lint/flow pin it
func (sl *Slice) Slowdown() float64 {
	worst := 1.0
	for _, j := range sl.running {
		if s := sl.slowdownFor(j); s > worst {
			worst = s
		}
	}
	return worst
}

// DefaultInterferenceAmp is the cache-interference amplification factor
// γ: a co-runner's effective bandwidth demand on a victim is
// FBR × (1 + γ·pollution_corunner·sensitivity_victim). Streaming CNN
// batches co-located with cache-sensitive LLM batches therefore cost far
// more than their nominal FBR, reproducing the up-to-6× MPS interference
// the paper measures in Figure 2, while same-class LLM pairs interfere
// mildly.
const DefaultInterferenceAmp = 4.0

// slowdownFor is the interference multiplier applied to one job: the
// worse of bandwidth contention (Eq. (1) of the paper, with each
// co-runner's demand amplified by 1 + γ·pollution·sensitivity) and SM
// contention, each normalized by the job's own demand so that a job
// whose demand exceeds the partition (the generative LLMs) is not
// slowed relative to its own solo measurement, which already includes
// self-saturation.
//
//protean:hotpath
func (sl *Slice) slowdownFor(j *Job) float64 {
	if sl.Mode == ShareTimeSlice {
		return 1
	}
	amp := sl.gpu.InterferenceAmp
	// Running jobs carry cached invariants; a what-if query for a job
	// that is not resident here (public SlowdownFor) derives them afresh
	// against this slice's profile, exactly as the accessors would.
	own, ownDemand, sens := j.invFBR, j.invDemand, j.invSens
	if !j.invCached || j.slice != sl {
		own = j.effFBR()
		ownDemand = j.effComputeDemand(sl.Prof)
		_, sens = j.W.Cache()
	}
	// Both sums run left to right over sl.running, in the same order as
	// the pre-cache implementation (TotalComputeDemand included j's own
	// term in its position within the running list).
	others := 0.0
	demand := 0.0
	for _, r := range sl.running {
		if r == j {
			demand += ownDemand
			continue
		}
		others += float64(r.invFBR * (1 + float64(amp*r.invPoll*sens)))
		demand += r.invDemand
	}
	bw := math.Max(own+others, 1) / math.Max(own, 1)
	ownSM := math.Max(ownDemand, 1)
	sm := math.Max(demand, 1) / ownSM
	return math.Max(math.Max(bw, sm), 1)
}

// Submit places a job on the slice. The job starts immediately if memory
// (MPS) or the execution unit (time sharing) is available, and is queued
// otherwise. If the GPU reorders pending work, strict jobs jump ahead of
// best-effort jobs in the queue.
func (sl *Slice) Submit(j *Job) error {
	if sl.closed {
		return ErrSliceClosed
	}
	if j.W.MemGB(sl.Prof) > sl.Prof.MemGB {
		return fmt.Errorf("%w: %s needs %.1f GB, slice %s has %.1f GB",
			ErrJobTooLarge, j.W.Name(), j.W.MemGB(sl.Prof), sl.Prof.Name, sl.Prof.MemGB)
	}
	if j.Enqueued == 0 {
		j.Enqueued = sl.sim.Now()
	}
	j.slice = sl
	// Reserve the job's place in running now, so start never grows it.
	if n := len(sl.running) + len(sl.pending) + 1; n > cap(sl.running) {
		sl.running = slices.Grow(sl.running, n-len(sl.running))
	}
	if j.fire == nil {
		j.fire = func() { j.slice.complete(j) }
	}
	sl.emitJob(obs.KindAdmit, j)
	if sl.gpu.ReorderPending && j.Strict {
		// Insert after the last pending strict job, ahead of BE jobs.
		pos := 0
		for pos < len(sl.pending) && sl.pending[pos].Strict {
			pos++
		}
		sl.pending = append(sl.pending, nil)
		copy(sl.pending[pos+1:], sl.pending[pos:])
		sl.pending[pos] = j
	} else {
		sl.pending = append(sl.pending, j)
	}
	sl.tryStart()
	return nil
}

// AdmitLookahead bounds how many memory-blocked pending jobs MPS
// admission may skip past when searching for a startable one. A small
// bound lets queued best-effort batches run behind a head batch that is
// too large for the remaining slice memory (head-of-line blocking),
// while keeping the head's wait bounded: once memory frees up, the head
// is the first admissible job again. Queue order — strict-first when
// the GPU reorders pending work — is preserved among admissible jobs.
const AdmitLookahead = 4

// tryStart admits pending jobs whose resources are available.
func (sl *Slice) tryStart() {
	if sl.closed {
		return
	}
	switch sl.Mode {
	case ShareTimeSlice:
		if len(sl.running) == 0 && len(sl.pending) > 0 {
			j := sl.pending[0]
			sl.pending = sl.pending[1:]
			sl.start(j)
		}
	case ShareMPS:
		for {
			pick := -1
			blocked := 0
			for i, j := range sl.pending {
				if sl.usedMem+j.W.MemGB(sl.Prof) <= sl.Prof.MemGB {
					pick = i
					break
				}
				blocked++
				if blocked > AdmitLookahead {
					break
				}
			}
			if pick < 0 {
				return
			}
			j := sl.pending[pick]
			sl.pending = slices.Delete(sl.pending, pick, pick+1)
			sl.start(j)
		}
	}
}

// start runs a pending job. A timer the job kept from an earlier run
// on another sim carries that sim's lane rank, so it is dropped and
// rebalance creates one here.
//
//protean:hotpath
func (sl *Slice) start(j *Job) {
	if j.timer != nil && j.timer.Sim() != sl.sim {
		j.timer = nil
	}
	now := sl.sim.Now()
	sl.account(now)
	j.started = now
	j.lastAdvance = now
	j.running = true
	j.remaining = j.W.SoloTime(j.effProfile(sl.Prof)) * j.scale() * j.jitter()
	j.cacheInvariants(sl.Prof)
	sl.usedMem += j.invMemGB
	n := len(sl.running)
	sl.running = sl.running[:n+1] // Submit reserved the slot
	sl.running[n] = j
	sl.emitJob(obs.KindExecStart, j)
	sl.rebalance(now)
}

// emitJob emits a job-scoped lifecycle event when tracing is enabled.
func (sl *Slice) emitJob(k obs.Kind, j *Job) {
	tr := sl.sim.Tracer()
	if !tr.Enabled() {
		return
	}
	ev := obs.At(sl.sim.Now(), k)
	ev.Node = sl.gpu.ID
	ev.Slice = sl.index
	ev.Batch = j.TraceID
	ev.Model = j.W.Name()
	ev.Strict = j.Strict
	ev.Requests = j.Requests
	if k == obs.KindExecEnd {
		bd := j.Breakdown()
		ev.Phases = &bd
	}
	tr.Emit(ev)
}

// rebalance advances every running job's progress to now and reschedules
// completions under the new slowdown. It must be called whenever slice
// occupancy changes. Completion timers are rescheduled in place
// (sim.Timer.Reschedule) rather than cancelled and reallocated, so the
// hot path leaves no dead timers in the event heap. The job being
// started re-arms the timer it kept from its last run, which takes a
// fresh sequence number just as a new timer would; only a Job object's
// first start creates one.
//
//protean:hotpath
func (sl *Slice) rebalance(now float64) {
	worst := 1.0
	for _, j := range sl.running {
		if j.slow > 0 {
			elapsed := now - j.lastAdvance
			j.remaining = math.Max(0, j.remaining-elapsed/j.slow)
		}
		j.lastAdvance = now
		j.slow = sl.slowdownFor(j)
		if j.slow > worst {
			worst = j.slow
		}
		if j.timer != nil && j.timer.Reschedule(now+float64(j.remaining*j.slow)) == nil {
			continue
		}
		j.timer = sl.sim.MustAfter(j.remaining*j.slow, j.fire)
	}
	if tr := sl.sim.Tracer(); tr.Enabled() {
		ev := obs.At(now, obs.KindSlowdown)
		ev.Node = sl.gpu.ID
		ev.Slice = sl.index
		// worst is exactly Slowdown(): the max over running jobs of the
		// multipliers the loop just computed. Reusing it avoids a second
		// O(n²) pass when tracing is on; untraced runs skip even that.
		ev.Value = worst
		tr.Emit(ev)
	}
}

// complete finishes a job when its timer fires. The fired timer stays
// with the job for its next start.
//
//protean:hotpath
func (sl *Slice) complete(j *Job) {
	now := sl.sim.Now()
	sl.account(now)
	j.remaining = 0
	j.running = false
	j.done = true
	j.finished = now
	sl.emitJob(obs.KindExecEnd, j)
	if i := slices.Index(sl.running, j); i >= 0 {
		sl.running = slices.Delete(sl.running, i, i+1)
	}
	// Subtract the exact value start() added: invMemGB is the cached
	// result of the same pure W.MemGB(sl.Prof) call.
	sl.usedMem -= j.invMemGB
	if sl.usedMem < 1e-9 {
		sl.usedMem = 0
	}
	sl.rebalance(now)
	sl.tryStart()
	sl.gpu.jobFinished(sl)
	if j.OnDone != nil {
		j.OnDone(j)
	}
}

// account accumulates busy-time and memory-use integrals up to now.
//
//protean:hotpath
func (sl *Slice) account(now float64) {
	sl.gpu.accountAnyBusy(now)
	dt := now - sl.lastAccount
	if dt <= 0 {
		return
	}
	if len(sl.running) > 0 {
		sl.busyIntegral += dt
	}
	sl.memIntegral += float64(sl.usedMem * dt)
	sl.lastAccount = now
}

// accountAnyBusy integrates the GPU's non-idle time (any slice running
// any job) up to now — the paper's GPU-utilization definition.
//
//protean:hotpath
func (g *GPU) accountAnyBusy(now float64) {
	dt := now - g.lastAnyAccount
	if dt <= 0 {
		return
	}
	busy := false
	for _, sl := range g.slices {
		if len(sl.running) > 0 {
			busy = true
			break
		}
	}
	if busy {
		g.anyBusyIntegral += dt
	}
	g.lastAnyAccount = now
}

// BusyFraction is the fraction of the window from creation to end the
// GPU was non-idle (at least one batch executing on any slice) — "GPU
// utilization" as nvidia-smi and the paper report it. end must not
// precede LastActive.
func (g *GPU) BusyFraction(end float64) float64 {
	g.accountAnyBusy(end)
	elapsed := end - g.createdAt
	if elapsed <= 0 {
		return 0
	}
	return g.anyBusyIntegral / elapsed
}

// LastActive returns the time of the GPU's last activity: the last
// moment any of its slices accounted busy time or memory. Utilization
// and BusyFraction account up to their end, so they move it too. A
// cluster ends a GPU's utilization window here, not at the end of the
// run.
func (g *GPU) LastActive() float64 { return g.lastAnyAccount }

// drain closes the slice and returns its pending (not yet started) jobs.
func (sl *Slice) drain() []*Job {
	sl.account(sl.sim.Now())
	sl.closed = true
	displaced := sl.pending
	sl.pending = nil
	for _, j := range displaced {
		j.slice = nil
	}
	return displaced
}

// ReconfigFaults supplies fault decisions for MIG reconfigurations.
// The engine consults it exactly once per reconfiguration, at the
// moment the drain completes and downtime begins: stretch multiplies
// the downtime (1 = healthy, k = stuck), and abort makes the geometry
// change fail — the downtime is still paid, but the previous geometry
// is reinstalled. Implemented by *chaos.Injector; a nil Faults field
// means no reconfiguration ever faults.
type ReconfigFaults interface {
	SampleReconfig(node int) (stretch float64, abort bool)
}

// GPU is one physical accelerator: a set of MIG slices under a geometry,
// plus the reconfiguration state machine.
type GPU struct {
	// ID identifies the GPU within its node/cluster.
	ID int
	// Mode is the sharing mode installed on every slice.
	Mode SharingMode
	// ReorderPending makes slices prioritize strict jobs in their
	// admission queues (PROTEAN's request reordering, §4.1).
	ReorderPending bool
	// ReconfigDowntime is the MIG geometry change downtime (~2 s).
	ReconfigDowntime float64
	// InterferenceAmp is the cross-interference amplification factor κ
	// (DefaultInterferenceAmp unless overridden).
	InterferenceAmp float64
	// Faults, when non-nil, injects reconfiguration faults (chaos
	// subsystem). Consulted once per geometry change as downtime begins.
	Faults ReconfigFaults

	sim      *sim.Sim
	arch     Arch
	geometry Geometry
	slices   []*Slice
	// ascending is slices reversed (smallest first), built with them.
	ascending []*Slice

	lastAnyAccount  float64
	anyBusyIntegral float64

	reconfiguring  bool
	pendingGeom    Geometry
	pendingAbort   bool
	displaced      []*Job
	onReady        func(displaced []*Job)
	createdAt      float64
	reconfigCount  int
	reconfigAborts int
	downtimeTotal  float64
	downtimeStart  float64
	busyBeforeGeom float64 // slot-weighted busy integral of retired slices
	memBeforeGeom  float64 // GB·s integral of retired slices
}

// DefaultReconfigDowntime is the MIG reconfiguration downtime used when
// none is configured (~2 s per §4.4).
const DefaultReconfigDowntime = 2.0

// NewGPU creates a GPU of the given architecture with an initial
// geometry and sharing mode. The geometry is validated against the
// architecture, and utilization accounting uses its totals.
//
// Timer affinity: every timer the GPU schedules (job completions, the
// reconfiguration downtime, slice accounting) lives on s. In the
// cluster, s is the owning node's lane, which keeps all of one node's
// events on one lane; callbacks therefore run in lane context
// and must only touch that node's state — cross-node effects go through
// root-scheduled events.
func NewGPU(s *sim.Sim, id int, arch Arch, geom Geometry, mode SharingMode) (*GPU, error) {
	if err := arch.ValidateGeometry(geom); err != nil {
		return nil, err
	}
	if mode != ShareMPS && mode != ShareTimeSlice {
		return nil, fmt.Errorf("gpu: unknown sharing mode %d", int(mode))
	}
	g := &GPU{
		ID:               id,
		Mode:             mode,
		ReconfigDowntime: DefaultReconfigDowntime,
		InterferenceAmp:  DefaultInterferenceAmp,
		sim:              s,
		createdAt:        s.Now(),
		arch:             arch,
	}
	g.installGeometry(geom)
	return g, nil
}

// installGeometry makes geom live. Geometries are never modified after
// construction, so the GPU keeps geom itself rather than a copy.
func (g *GPU) installGeometry(geom Geometry) {
	g.geometry = geom
	g.slices = make([]*Slice, len(geom))
	g.ascending = make([]*Slice, len(geom))
	now := g.sim.Now()
	for i, p := range geom {
		sl := &Slice{
			Prof:        p,
			Mode:        g.Mode,
			sim:         g.sim,
			gpu:         g,
			index:       i,
			lastAccount: now,
		}
		g.slices[i] = sl
		g.ascending[len(geom)-1-i] = sl
	}
}

// The three views below return the GPU's own storage, so they cost
// nothing on the placement and planning paths. Callers must treat them
// as read-only. A view taken before a reconfiguration keeps its old
// contents: installing a geometry allocates fresh lists and never
// reuses retired ones.

// Geometry returns the currently installed geometry (read-only).
//
//protean:hotpath
func (g *GPU) Geometry() Geometry { return g.geometry }

// Slices returns the current slices, largest first (read-only).
//
//protean:hotpath
func (g *GPU) Slices() []*Slice { return g.slices }

// SlicesAscending returns the current slices ordered smallest first, as
// iterated by Algorithm 1 (read-only): the exact reverse of Slices.
//
//protean:hotpath
func (g *GPU) SlicesAscending() []*Slice { return g.ascending }

// Reconfiguring reports whether a geometry change is in flight.
func (g *GPU) Reconfiguring() bool { return g.reconfiguring }

// ReconfigCount returns the number of completed geometry changes.
func (g *GPU) ReconfigCount() int { return g.reconfigCount }

// ReconfigAborts returns the number of geometry changes that faulted
// and rolled back (injected reconfiguration aborts).
func (g *GPU) ReconfigAborts() int { return g.reconfigAborts }

// Arch returns the GPU's architecture.
func (g *GPU) Arch() Arch { return g.arch }

// Reconfigure initiates a MIG geometry change. Slices stop admitting new
// jobs immediately; already-running jobs drain; pending jobs are
// displaced and handed to onReady together with control once the new
// geometry is live (after ReconfigDowntime). Reconfiguring to the current
// geometry is rejected by Equal check at the caller's discretion — the
// engine performs it regardless.
func (g *GPU) Reconfigure(geom Geometry, onReady func(displaced []*Job)) error {
	if g.reconfiguring {
		return ErrReconfiguring
	}
	if err := g.Arch().ValidateGeometry(geom); err != nil {
		return err
	}
	g.reconfiguring = true
	g.pendingGeom = geom
	g.onReady = onReady
	g.displaced = nil
	if tr := g.sim.Tracer(); tr.Enabled() {
		ev := obs.At(g.sim.Now(), obs.KindReconfigBegin)
		ev.Node = g.ID
		ev.Detail = geom.String()
		tr.Emit(ev)
	}
	for _, sl := range g.slices {
		g.displaced = append(g.displaced, sl.drain()...)
	}
	g.maybeBeginDowntime()
	return nil
}

// jobFinished is notified by slices on every completion so a draining GPU
// can detect idleness.
func (g *GPU) jobFinished(*Slice) {
	if g.reconfiguring {
		g.maybeBeginDowntime()
	}
}

func (g *GPU) maybeBeginDowntime() {
	for _, sl := range g.slices {
		if len(sl.running) > 0 {
			return
		}
	}
	g.downtimeStart = g.sim.Now()
	downtime := g.ReconfigDowntime
	// Sample reconfiguration faults exactly once, at the instant the
	// drain completes: a stuck reconfiguration stretches the downtime,
	// an aborted one rolls the pending geometry back to the current one
	// (the downtime is still paid — the failed attempt blocked the GPU).
	if g.Faults != nil {
		stretch, abort := g.Faults.SampleReconfig(g.ID)
		if stretch > 1 {
			downtime *= stretch
		}
		if abort {
			g.pendingAbort = true
			g.pendingGeom = g.geometry
		}
	}
	g.retireSlices()
	g.sim.MustAfter(downtime, g.finishReconfig)
}

func (g *GPU) retireSlices() {
	now := g.sim.Now()
	for _, sl := range g.slices {
		sl.account(now)
		g.busyBeforeGeom += float64(sl.busyIntegral * float64(sl.Prof.Slots))
		g.memBeforeGeom += sl.memIntegral
		sl.closed = true
	}
	g.slices, g.ascending = nil, nil
}

func (g *GPU) finishReconfig() {
	g.downtimeTotal += g.sim.Now() - g.downtimeStart
	g.installGeometry(g.pendingGeom)
	g.reconfiguring = false
	if g.pendingAbort {
		g.pendingAbort = false
		g.reconfigAborts++
	} else {
		g.reconfigCount++
	}
	if tr := g.sim.Tracer(); tr.Enabled() {
		ev := obs.At(g.sim.Now(), obs.KindReconfigEnd)
		ev.Node = g.ID
		ev.Detail = g.geometry.String()
		tr.Emit(ev)
	}
	displaced := g.displaced
	g.displaced = nil
	onReady := g.onReady
	g.onReady = nil
	if onReady != nil {
		onReady(displaced)
	}
}

// Utilization returns the GPU's compute utilization (slot-weighted busy
// fraction) and memory utilization (fraction of 40 GB occupied on
// average) over the window from creation to end. end must not precede
// LastActive.
func (g *GPU) Utilization(end float64) (compute, mem float64) {
	elapsed := end - g.createdAt
	if elapsed <= 0 {
		return 0, 0
	}
	busy := g.busyBeforeGeom
	memInt := g.memBeforeGeom
	for _, sl := range g.slices {
		sl.account(end)
		busy += float64(sl.busyIntegral * float64(sl.Prof.Slots))
		memInt += sl.memIntegral
	}
	return busy / (float64(g.arch.TotalSlots) * elapsed), memInt / (g.arch.TotalMemGB * elapsed)
}
