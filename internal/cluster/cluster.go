// Package cluster assembles the full serverless platform of Figure 4:
// a gateway/batcher, a dispatcher load-balancing batches across worker
// nodes, per-node GPU scheduling under a pluggable policy (PROTEAN or
// any baseline), container autoscaling with cold starts, per-node GPU
// reconfiguration under the ≤30% simultaneity budget, and an optional
// spot/on-demand VM fleet with cost metering.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"protean/internal/autoscale"
	"protean/internal/chaos"
	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/market"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/pool"
	"protean/internal/queue"
	"protean/internal/reconfig"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// Config describes one cluster run.
type Config struct {
	// Nodes is the number of GPU worker nodes (8 in the paper).
	Nodes int
	// Policy builds the per-node scheduling policy.
	Policy core.Factory
	// SLOMultiplier sets strict latency targets as a multiple of
	// solo-on-7g execution time (default 3; the tight-SLO study uses 2).
	SLOMultiplier float64
	// Warmup excludes requests arriving before this time from the
	// metrics, letting container pools ramp up (0 records everything).
	Warmup float64
	// PreWarm provisions idle containers for these models on every node
	// at startup (conservative container provisioning, §6.1.4).
	PreWarm []*model.Model
	// PreWarmCount is the number of containers pre-warmed per model per
	// node (default 2).
	PreWarmCount int
	// Scaler tunes container autoscaling.
	Scaler autoscale.Config
	// VM optionally enables the spot/on-demand fleet; its Nodes and
	// Listener fields are managed by the cluster.
	VM *vm.Config
	// Chaos configures deterministic fault injection (off by default).
	// When disabled the run is byte-identical to one without the chaos
	// subsystem: no RNG draws, no timers, no extra events.
	Chaos chaos.Config
	// Arch selects the GPU generation (nil: the paper's A100-40GB).
	// Policies keep planning in A100 profile names; geometries are
	// translated by slot prefix, so an H100 fleet gets 80 GB slices.
	Arch *gpu.Arch
	// Level is what every recorder keeps — per-node accumulators and
	// the merged result (see metrics.Level). The zero value keeps every
	// row. A run whose reader reads only counts records at
	// metrics.Counts and builds no rows; scale runs record at
	// metrics.Sketches, so peak memory stays flat in the request count.
	Level metrics.Level
	// SketchQuantiles is perfbench's spelling of Level
	// metrics.Sketches; nothing else sets it. New rejects it together
	// with another level.
	SketchQuantiles bool
}

// Fixed model parameters of the platform.
const (
	// monitorInterval is the reconfiguration monitor window W in
	// seconds.
	monitorInterval float64 = 2
	// dispatchQuantum is the period of the dispatch barrier in seconds:
	// batches the gateway seals are routed to nodes at the next quantum
	// boundary. The schedule is part of the model, so results depend on
	// the quantum.
	dispatchQuantum float64 = 0.005
	// reconfigFrac caps the fraction of GPUs reconfiguring
	// simultaneously (§4.4).
	reconfigFrac float64 = 0.3
	// serviceJitterCV is the coefficient of variation of the lognormal
	// execution-time jitter applied per batch (data-dependent service
	// variability).
	serviceJitterCV float64 = 0.2
)

// The service jitter's lognormal parameters depend on serviceJitterCV
// alone, so they are computed once: σ² = ln(1 + cv²) and σ.
var (
	jitterSigma2 = math.Log(1 + serviceJitterCV*serviceJitterCV)
	jitterSigma  = math.Sqrt(jitterSigma2)
)

func (c *Config) applyDefaults() {
	if c.SLOMultiplier <= 0 {
		c.SLOMultiplier = model.DefaultSLOMultiplier
	}
}

// heldBatch is a batch that cleared its cold start but could not be
// placed yet (GPU reconfiguring or no fitting slice).
type heldBatch struct {
	batch *queue.Batch
	cold  float64
}

// node is one GPU worker. Each node runs on its own simulation lane:
// its GPU, scaler and jitter stream are only ever touched from that
// lane's events or from the root's events, so the node's event order is
// independent of every other lane. What a node's work produces goes
// straight to the Cluster's records, in event order.
type node struct {
	id      int
	cluster *Cluster
	sim     *sim.Sim    // the node's lane
	rng     *sim.Stream // service-jitter stream, derived per node
	gpu     *gpu.GPU
	policy  core.Policy
	scaler  *autoscale.Scaler

	up          bool
	outstanding int
	// outstandingReqs mirrors outstanding at request granularity for
	// live-mode backlog queries; it moves at exactly the sites that move
	// outstanding.
	outstandingReqs int

	held []heldBatch

	beBatchesWindow int
	lastBEModel     *model.Model
	// beSolo is lastBEModel.SoloTime, bound when lastBEModel changes so
	// the monitor tick hands it to the policy without allocating.
	beSolo func(gpu.Profile) float64

	// recorder stays per node: merging in node order after the run fixes
	// the sample storage order, which the pinned reports read.
	recorder metrics.Recorder

	// jobFree recycles gpu.Job objects for this node's placements; its
	// per-node hit counts are pinned by the scale report and /metrics.
	jobFree pool.Free[gpu.Job]
	// onDone/onFail are the hoisted per-node completion callbacks, so a
	// placement costs no closure allocations.
	onDone, onFail func(*gpu.Job)
}

// GeometryEvent records one geometry installation (for Figure 7).
type GeometryEvent struct {
	Time     float64 `json:"time"`
	Node     int     `json:"node"`
	Geometry string  `json:"geometry"`
}

// Cluster is the running platform. The root simulation hosts the
// coordinator (dispatch, monitor, VM market, chaos schedule); the
// gateway (a batch run's replayed plan, or the live batcher) and every
// node run on lanes of that root. Sealed batches cross from the gateway lane to the
// coordinator through the sealed mailbox, drained in seal order at
// each dispatch-quantum barrier.
type Cluster struct {
	cfg      Config
	sim      *sim.Sim // root
	gateway  *sim.Sim // arrival/batching lane
	nodes    []*node
	batcher  *queue.Batcher
	budget   *reconfig.Budget
	fleet    *vm.Fleet
	recorder *metrics.Recorder

	sealed        []*queue.Batch // gateway→coordinator mailbox, FIFO
	quantum       *sim.Ticker
	pendingGlobal []*queue.Batch
	monitor       *sim.Ticker
	stopped       bool
	notices       int

	chaos    *chaos.Injector
	offered  int
	requeued int

	// Outcomes, appended when they happen. One timer heap runs every
	// lane, so each list is already in (time, node) order.
	timeline  []GeometryEvent
	completed int
	dropped   int // gateway enqueue failures and node drops
	// spent holds batches finished since the last dispatch barrier,
	// which returns them to the batcher's freelist.
	spent []*queue.Batch
	// rows is complete's scratch buffer: one completed batch's recorded
	// requests.
	rows []metrics.BatchRow

	// live marks a cluster armed by StartLive: the run is driven by
	// AdvanceTo/Drain instead of Run, and completions and drops are
	// buffered in done and drops for CollectLive.
	live  bool
	done  []Completion
	drops []DropRecord

	// A planned gateway's replay (Run, RunStream, RunPlan): the steps
	// still to re-enact, the next one, the timer that fires at each step
	// instant and how often it fired, and, once the replay ends, the
	// planner's partial-batch shell traffic.
	steps       *queue.Planner
	step        *queue.Step
	replayTimer *sim.Timer
	replayed    int
	shells      pool.Stats

	// Oracle support: per-window upcoming BE load, derived from the
	// whole plan only when lookahead is set, i.e. the node policy reads
	// the next-window view (core.Lookahead).
	lookahead       bool
	windowBEBatches []int
	windowBEMem     []float64
}

var (
	_ vm.Listener   = (*Cluster)(nil)
	_ chaos.Targets = (*Cluster)(nil)
)

// New builds a cluster on the given simulator.
func New(s *sim.Sim, cfg Config) (*Cluster, error) {
	if s == nil {
		return nil, errors.New("cluster: nil sim")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes, want > 0", cfg.Nodes)
	}
	if cfg.Policy == nil {
		return nil, errors.New("cluster: nil policy factory")
	}
	if cfg.SketchQuantiles {
		if cfg.Level != metrics.Rows && cfg.Level != metrics.Sketches {
			return nil, errors.New("cluster: SketchQuantiles set with another recorder level")
		}
		cfg.Level = metrics.Sketches
	}
	if !cfg.Level.Valid() {
		return nil, fmt.Errorf("cluster: invalid recorder level %d", cfg.Level)
	}
	cfg.applyDefaults()

	c := &Cluster{cfg: cfg, sim: s, recorder: metrics.NewRecorder(cfg.Level)}
	// The gateway lane is created first so its trace events sort ahead
	// of node-lane events at equal timestamps (arrival before service).
	c.gateway = s.Lane("gateway")
	budget, err := reconfig.NewBudget(cfg.Nodes, reconfigFrac)
	if err != nil {
		return nil, err
	}
	c.budget = budget

	// nil when disabled; every use below is nil-guarded, so a
	// chaos-off run takes the exact pre-chaos code paths.
	inj, err := chaos.New(s, cfg.Chaos)
	if err != nil {
		return nil, err
	}
	c.chaos = inj

	arch := gpu.ArchA100()
	if cfg.Arch != nil {
		arch = *cfg.Arch
	}
	for i := 0; i < cfg.Nodes; i++ {
		pol := cfg.Policy()
		geom, err := arch.Translate(pol.InitialGeometry())
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d geometry: %w", i, err)
		}
		// Everything node-local — GPU timers, scaler clock reads, jitter
		// draws — lives on the node's lane, which gives it its place in
		// the queue's tie order.
		ns := s.Lane(fmt.Sprintf("node/%d", i))
		g, err := gpu.NewGPU(ns, i, arch, geom, pol.Sharing())
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d GPU: %w", i, err)
		}
		g.ReorderPending = pol.ReorderRequests()
		if ov, ok := pol.(core.DowntimeOverrider); ok {
			if d, set := ov.ReconfigDowntime(); set {
				g.ReconfigDowntime = d
			}
		}
		if la, ok := pol.(core.Lookahead); ok && la.ReadsNextWindow() {
			c.lookahead = true
		}
		if c.chaos != nil {
			g.Faults = c.chaos
		}
		scaler, err := autoscale.NewScaler(ns, cfg.Scaler)
		if err != nil {
			return nil, err
		}
		scaler.Node = i
		n := &node{
			id:      i,
			cluster: c,
			sim:     ns,
			rng:     s.Rand().Child(fmt.Sprintf("cluster/jitter/%d", i)),
			gpu:     g,
			policy:  pol,
			scaler:  scaler,
			up:      true,
		}
		// Node recorders keep the run's level too: rows kept per node
		// would still grow with the request count.
		n.recorder = *metrics.NewRecorder(cfg.Level)
		n.jobFree.Reset = (*gpu.Job).Reset
		n.onDone = func(j *gpu.Job) { n.complete(j.Ctx.(*queue.Batch), j) }
		n.onFail = func(j *gpu.Job) { n.jobFailed(j.Ctx.(*queue.Batch), j) }
		for _, m := range cfg.PreWarm {
			count := cfg.PreWarmCount
			if count <= 0 {
				count = 2
			}
			scaler.Prewarm(m.Name(), count)
		}
		c.nodes = append(c.nodes, n)
		c.timeline = append(c.timeline, GeometryEvent{Time: s.Now(), Node: i, Geometry: g.Geometry().String()})
	}

	// The batcher lives on the gateway lane; sealed batches land in the
	// mailbox and cross to the coordinator at the next dispatch quantum.
	// A live cluster batches through it; a batch run's replay takes the
	// shells of its planned batches from it.
	batcher, err := queue.NewBatcher(c.gateway, queue.DefaultWindow, c.enqueueSealed)
	if err != nil {
		return nil, err
	}
	c.batcher = batcher

	if cfg.VM != nil {
		vmCfg := *cfg.VM
		vmCfg.Nodes = cfg.Nodes
		vmCfg.Listener = c
		fleet, err := vm.NewFleet(s, vmCfg)
		if err != nil {
			return nil, err
		}
		c.fleet = fleet
		// Nodes come up through fleet callbacks.
		for _, n := range c.nodes {
			n.up = false
		}
	}
	return c, nil
}

// PoolStats aggregates freelist hit/miss counters across the batcher
// (batch and partial-batch shells) and every node's job list. The
// counts are deterministic for a seed. Call from root context only.
func (c *Cluster) PoolStats() pool.Stats {
	st := c.batcher.PoolStats()
	st.Add(c.shells)
	for _, n := range c.nodes {
		st.Add(n.jobFree.Stats())
	}
	return st
}

// Result summarizes a completed run.
type Result struct {
	// Recorder holds every latency sample.
	Recorder *metrics.Recorder
	// Duration is the trace duration in seconds.
	Duration float64
	// Nodes is the worker count.
	Nodes int
	// ComputeUtil and MemUtil average GPU utilization across nodes
	// (ComputeUtil is slot-weighted busy time). Each GPU's window runs
	// from its creation to its last activity (gpu.GPU.LastActive).
	ComputeUtil, MemUtil float64
	// BusyUtil is the average fraction of non-idle GPU time — "GPU
	// utilization" as the paper (and nvidia-smi) reports it — over the
	// same windows.
	BusyUtil float64
	// Cost reports VM spending (nil without a fleet).
	Cost *vm.CostReport
	// ColdStarts counts container cold starts across nodes.
	ColdStarts int
	// Reconfigs counts completed geometry changes.
	Reconfigs int
	// Timeline records geometry installations (Figure 7).
	Timeline []GeometryEvent
	// Dropped counts requests abandoned because no node was available
	// for an extended period.
	Dropped int
	// EvictionNotices counts spot revocation notices received (§4.5).
	EvictionNotices int
	// ReconfigAborts counts geometry changes that faulted and rolled
	// back (zero without chaos).
	ReconfigAborts int
	// Availability tallies offered/completed/dropped/requeued requests.
	Availability metrics.Availability
	// Chaos reports injected-fault counters (nil when chaos is off).
	Chaos *chaos.Stats
	// Pool counts hot-object freelist traffic (job/batch reuse); hits
	// are deterministic for a seed.
	Pool pool.Stats
	// Market digests marketplace activity (nil unless the fleet is
	// market-backed).
	Market *market.Summary
	// Migrations counts completed procurement migrations (market mode).
	Migrations int
}

// Run replays a materialised request trace and drains the system.
// duration is the trace horizon; requests beyond it are ignored. Run
// only reads reqs: an unsorted trace is stably sorted in a copy, so one
// slice may be replayed by many runs, concurrently too. The gateway
// plans its batches over the trace as the run goes (queue.Planner), on
// a goroutine of its own when there is a second P, and no goroutine
// reads reqs once Run returns; a policy that reads the window view gets
// the whole plan first.
func (c *Cluster) Run(reqs []trace.Request, duration float64) (*Result, error) {
	if err := checkHorizon(duration); err != nil {
		return nil, err
	}
	if !arrivalsSorted(reqs) {
		// Sort a copy: the caller's slice may be shared with other runs.
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, byArrival)
	}
	next := trace.SliceSource(reqs)
	if c.lookahead {
		plan, err := queue.Build(duration, next)
		if err != nil {
			return nil, err
		}
		return c.RunPlan(plan)
	}
	pl, err := queue.NewPlanner(duration, next, c.batcher)
	if err != nil {
		return nil, err
	}
	return c.replay(pl, duration)
}

// checkHorizon rejects a run horizon that is not a positive, finite
// number of seconds: a NaN or infinite one would never stop the run.
func checkHorizon(duration float64) error {
	if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 1) {
		return fmt.Errorf("cluster: duration %v must be positive and finite", duration)
	}
	return nil
}

// byArrival orders requests by arrival time.
func byArrival(a, b trace.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }

// arrivalsSorted reports whether reqs are in byArrival order, a NaN
// arrival before every number. It is slices.IsSortedFunc(reqs,
// byArrival) without a comparator call per request.
func arrivalsSorted(reqs []trace.Request) bool {
	for i := 1; i < len(reqs); i++ {
		if cmp.Less(reqs[i].Arrival, reqs[i-1].Arrival) {
			return false
		}
	}
	return true
}

// RunStream replays a pull-based arrival stream without ever
// materialising it: the gateway plans batches as the run pulls them,
// so peak memory is independent of the request count. The planner is
// the stream's only reader until RunStream returns. Arrivals at or
// past the horizon end the stream. A streamed run gives the Oracle no
// window view; every other policy ignores it.
func (c *Cluster) RunStream(st *trace.Stream, duration float64) (*Result, error) {
	if err := checkHorizon(duration); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, errors.New("cluster: nil stream")
	}
	pl, err := queue.NewPlanner(duration, st.Source(), c.batcher)
	if err != nil {
		return nil, err
	}
	return c.replay(pl, duration)
}

// RunPlan replays a plan of the gateway's sealed batches (queue.Build)
// and drains the system; the plan's horizon is the run's. Runs only
// read a plan, so any number of them may replay one, concurrently too,
// traced or not.
func (c *Cluster) RunPlan(plan *queue.Plan) (*Result, error) {
	if err := checkHorizon(plan.Horizon); err != nil {
		return nil, err
	}
	if c.lookahead {
		c.windowView(plan)
	}
	return c.replay(plan.Replay(), plan.Horizon)
}

// replay runs the simulation to the horizon with the gateway's planned
// steps re-enacted at their instants, then drains it. One gateway-lane
// timer fires at each step instant and re-enacts every step there: a
// seal puts its batch in the mailbox, and a traced run emits the step's
// event. Gateway-lane timers run before node and root timers at one
// instant, so each batch reaches the mailbox, and each event the trace,
// where a batcher on the simulation's own clock would put it. The
// plan's flush steps wait for drainAll.
func (c *Cluster) replay(steps *queue.Planner, duration float64) (*Result, error) {
	// A pulled planner's producer goroutine reads the caller's trace: it
	// must be gone when the run returns, on every path.
	defer steps.Stop()
	if c.fleet != nil {
		if err := c.fleet.Start(); err != nil {
			return nil, err
		}
	}
	c.steps = steps
	if c.pullStep() {
		tm, err := c.gateway.At(c.step.Batch.Sealed, c.replayInstant)
		if err != nil {
			return nil, err
		}
		c.replayTimer = tm
	}
	if err := c.startControl(); err != nil {
		return nil, err
	}
	if err := c.sim.RunUntil(duration); err != nil {
		return nil, err
	}
	return c.drainAll(duration)
}

// pullStep loads the next step into c.step and reports whether the
// replay timer re-enacts it: false at the end and at the first flush
// step.
func (c *Cluster) pullStep() bool {
	c.step = c.steps.Next()
	return c.step != nil && c.step.Kind != queue.StepFlush
}

// replayInstant is the replay timer's callback: it re-enacts every step
// at the current instant and re-arms at the next one. While that next
// instant is also the next event, it goes on in a loop
// (sim.Timer.Continue) instead of returning to the event loop; each
// instant counts as one firing either way.
func (c *Cluster) replayInstant() {
	tr := c.gateway.Tracer()
	for {
		c.replayed++
		now := c.gateway.Now()
		for {
			c.enact(c.step, tr)
			if !c.pullStep() {
				return
			}
			if c.step.Batch.Sealed > now {
				break
			}
		}
		more, err := c.replayTimer.Continue(c.step.Batch.Sealed)
		if err != nil {
			panic(err) // unreachable: a plan's steps are in time order
		}
		if !more {
			return
		}
	}
}

// enact re-enacts one planned step: it emits the step's trace event
// and puts a sealed batch in the mailbox, in a shell from the batcher's
// freelist.
func (c *Cluster) enact(st *queue.Step, tr obs.Tracer) {
	if tr.Enabled() {
		tr.Emit(st.Event())
	}
	c.enqueueSealed(c.batcher.Replay(&st.Batch))
}

// flushPlanned ends a replay at the horizon: it re-enacts the plan's
// flush steps in Flush order and books the gateway's counts. The
// planner ran each arrival and window seal as an event on its own
// clock; Executed counts those events and not the replay's firings.
func (c *Cluster) flushPlanned() {
	if c.steps == nil {
		return
	}
	tr := c.sim.Tracer()
	for ; c.step != nil; c.step = c.steps.Next() {
		c.enact(c.step, tr)
	}
	tally := c.steps.Tally()
	c.offered += tally.Offered
	c.dropped += tally.Dropped
	c.shells = tally.Shells
	c.sim.AdjustExecuted(int64(tally.Events) - int64(c.replayed))
	c.steps = nil
}

// startControl starts the chaos schedule and the dispatch/monitor
// tickers — the run-time control machinery shared by the one-shot batch
// path (Run) and the live serving path (StartLive). The creation order
// is part of the model: timers created earlier win same-instant ties.
func (c *Cluster) startControl() error {
	c.chaos.Start(c, len(c.nodes))
	// The dispatch quantum is created before the monitor so that when
	// both tickers land on the same instant (the monitor interval is a
	// multiple of the quantum) sealed batches are routed before the
	// monitor replans.
	quantum, err := c.sim.Every(dispatchQuantum, c.drainSealed)
	if err != nil {
		return err
	}
	quantum.SkipWhile(c.mailboxIdle)
	c.quantum = quantum
	monitor, err := c.sim.Every(monitorInterval, c.monitorTick)
	if err != nil {
		return err
	}
	c.monitor = monitor
	return nil
}

// drainAll freezes the world — stop metering, stop new revocations and
// new faults, flush partial batches — then drains in-flight work and
// assembles the Result. The injector must stop first or its
// self-re-arming Poisson timers would keep the drain alive forever.
func (c *Cluster) drainAll(duration float64) (*Result, error) {
	c.monitor.Stop()
	c.chaos.Stop()
	start := 0.0
	var cost *vm.CostReport
	var marketSummary *market.Summary
	migrations := 0
	if c.fleet != nil {
		report := c.fleet.Cost(start)
		cost = &report
		c.fleet.Stop()
		migrations = c.fleet.Migrations()
		if mk := c.fleet.Market(); mk != nil {
			// The marketplace's tickers must stop or the drain below
			// would never run out of events.
			mk.Stop()
			s := mk.Summary()
			marketSummary = &s
		}
		// After Stop, no node state changes arrive; reopen all nodes so
		// queued work can drain for final metrics.
		for _, n := range c.nodes {
			n.up = true
		}
	}
	c.stopped = true
	c.batcher.Flush()
	c.flushPlanned()
	c.drainSealed()
	// The quantum ticker must stop before the drain or its re-arming
	// would keep the root queue alive forever.
	c.quantum.Stop()
	c.drainPendingGlobal()
	for _, n := range c.nodes {
		n.pumpHeld()
	}
	if err := c.sim.Run(); err != nil {
		return nil, err
	}

	computeSum, memSum, busySum := 0.0, 0.0, 0.0
	coldStarts, reconfigs, aborts := 0, 0, 0
	nodeRecs := make([]*metrics.Recorder, len(c.nodes))
	for i, n := range c.nodes {
		end := n.gpu.LastActive()
		cu, mu := n.gpu.Utilization(end)
		computeSum += cu
		memSum += mu
		busySum += n.gpu.BusyFraction(end)
		coldStarts += n.scaler.ColdStarts()
		reconfigs += n.gpu.ReconfigCount()
		aborts += n.gpu.ReconfigAborts()
		nodeRecs[i] = &n.recorder
	}
	// Merge the node recorders in node order — a fixed order,
	// so the report is a pure function of the seed — in one call that
	// takes the node recorders' row chunks without copying them. Nothing
	// records after the drain, so the node recorders are reset.
	c.recorder.Merge(nodeRecs...)
	for _, n := range c.nodes {
		n.recorder = metrics.Recorder{}
	}
	var chaosStats *chaos.Stats
	if c.chaos != nil {
		st := c.chaos.Stats()
		chaosStats = &st
	}
	avail := metrics.Availability{
		Offered:   c.offered,
		Completed: c.completed,
		Dropped:   c.dropped,
		Requeued:  c.requeued,
	}
	if chaosStats != nil {
		avail.Retries = chaosStats.Retries
	}
	return &Result{
		Recorder:        c.recorder,
		Duration:        duration,
		Nodes:           c.cfg.Nodes,
		ComputeUtil:     computeSum / float64(len(c.nodes)),
		MemUtil:         memSum / float64(len(c.nodes)),
		BusyUtil:        busySum / float64(len(c.nodes)),
		Cost:            cost,
		ColdStarts:      coldStarts,
		Reconfigs:       reconfigs,
		Timeline:        c.timeline,
		Dropped:         c.dropped,
		EvictionNotices: c.notices,
		ReconfigAborts:  aborts,
		Availability:    avail,
		Chaos:           chaosStats,
		Pool:            c.PoolStats(),
		Market:          marketSummary,
		Migrations:      migrations,
	}, nil
}

// windowView derives the Oracle's per-monitor-window view of upcoming
// BE load from a plan's best-effort batches: BE arrivals are binned
// into monitor windows, a window's batch size is the model's of its
// first BE arrival and its memory the model's of its last (arrivals at
// one instant in different batches go by seal order), and each
// window's request count becomes a per-node batch count.
func (c *Cluster) windowView(plan *queue.Plan) {
	w := monitorInterval
	n := int(plan.Horizon/w) + 2
	c.windowBEBatches = make([]int, n)
	c.windowBEMem = make([]float64, n)
	beReqs := make([]int, n)
	first, last := make([]float64, n), make([]float64, n)
	for i := range plan.Steps {
		b := &plan.Steps[i].Batch
		if b.Strict {
			continue
		}
		for _, a := range b.Arrivals {
			idx := int(a / w)
			if idx >= n {
				continue
			}
			if beReqs[idx] == 0 || a < first[idx] {
				first[idx] = a
				c.windowBEBatches[idx] = b.Model.BatchSize()
			}
			if beReqs[idx] == 0 || a >= last[idx] {
				last[idx] = a
				c.windowBEMem[idx] = b.Model.MemGB(gpu.Profile3g)
			}
			beReqs[idx]++
		}
	}
	for i := range beReqs {
		if c.windowBEBatches[i] > 0 {
			batchSize := c.windowBEBatches[i]
			perNode := int(math.Ceil(float64(beReqs[i]) / float64(batchSize) / float64(c.cfg.Nodes)))
			c.windowBEBatches[i] = perNode
		}
	}
}

// enqueueSealed is the batcher's emit hook: it appends the sealed
// batch to the gateway→coordinator mailbox. It runs in gateway-lane
// context (window timers, seal-on-full, a replayed seal) or in root
// context (the teardown flush); only the root calls drainSealed.
func (c *Cluster) enqueueSealed(b *queue.Batch) {
	c.sealed = append(c.sealed, b)
}

// drainSealed routes every mailbox batch to a node, in seal order —
// the deterministic barrier drain of the dispatch quantum. It also
// returns batches the nodes finished since the last barrier to the
// batcher's freelist, in the order they finished.
func (c *Cluster) drainSealed() {
	for i, b := range c.spent {
		c.batcher.Release(b)
		c.spent[i] = nil
	}
	c.spent = c.spent[:0]
	sealed := c.sealed
	c.sealed = c.sealed[:0]
	for _, b := range sealed {
		c.dispatch(b)
	}
}

// mailboxIdle reports whether drainSealed would do nothing: the
// mailbox holds no sealed batch and no spent one waits. The root skips
// dispatch quanta while it holds (see sim.Ticker.SkipWhile); most
// quanta of a long, lightly loaded horizon are such no-ops.
func (c *Cluster) mailboxIdle() bool {
	return len(c.sealed) == 0 && len(c.spent) == 0
}

// dispatch routes one sealed batch to the least-loaded available node.
func (c *Cluster) dispatch(b *queue.Batch) {
	n := c.pickNode()
	if n == nil {
		c.pendingGlobal = append(c.pendingGlobal, b)
		return
	}
	n.accept(b)
}

func (c *Cluster) pickNode() *node {
	var best *node
	for _, n := range c.nodes {
		if !n.up {
			continue
		}
		if best == nil || n.outstanding < best.outstanding {
			best = n
		}
	}
	return best
}

func (c *Cluster) drainPendingGlobal() {
	pending := c.pendingGlobal
	c.pendingGlobal = nil
	for _, b := range pending {
		c.dispatch(b)
	}
}

// monitorTick runs Algorithm 2 on every node and retries stalled work.
func (c *Cluster) monitorTick() {
	widx := int(c.sim.Now() / monitorInterval)
	for _, n := range c.nodes {
		n.scaler.Sweep()
		view := core.QueueView{
			BEBatchesLastWindow: n.beBatchesWindow,
			BEMemPerBatch:       n.beMemPerBatch(),
			BESolo:              n.beSolo,
			WindowSeconds:       monitorInterval,
		}
		if widx+1 < len(c.windowBEBatches) {
			view.NextWindowBEBatches = c.windowBEBatches[widx+1]
			view.NextWindowBEMemPerBatch = c.windowBEMem[widx+1]
		}
		n.beBatchesWindow = 0
		desired, doIt := n.policy.DesiredGeometry(n.gpu, view)
		if doIt && !n.gpu.Reconfiguring() {
			translated, err := n.gpu.Arch().Translate(desired)
			if err == nil && !translated.Equal(n.gpu.Geometry()) && c.budget.TryAcquire() {
				n.reconfigure(translated)
			}
		}
		n.pumpHeld()
	}
	c.drainPendingGlobal()
}

// NodeDraining implements vm.Listener. Per §4.5 the node keeps serving
// through the notice window: GPU serverless batches finish well inside
// the 30–120 s lead time, and traffic only redirects when the
// replacement VM attaches (NodeUp) or the VM dies without one
// (NodeDown). The notice itself therefore costs no capacity.
func (c *Cluster) NodeDraining(id int, _ float64) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	c.notices++
}

// NodeDown implements vm.Listener.
func (c *Cluster) NodeDown(id int) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	n := c.nodes[id]
	n.up = false
	n.evacuate()
}

// NodeUp implements vm.Listener.
func (c *Cluster) NodeUp(id int, _ vm.Kind) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	n := c.nodes[id]
	n.up = true
	c.drainPendingGlobal()
}

// beMemPerBatch is the per-batch footprint of the node's most recent BE
// model on a partial slice (Algorithm 2's mem(BE_model, ·)).
func (n *node) beMemPerBatch() float64 {
	if n.lastBEModel == nil {
		return 0
	}
	return n.lastBEModel.MemGB(gpu.Profile3g)
}

// accept takes ownership of a dispatched batch: acquire a container
// (possibly paying a cold start), then place the batch.
func (n *node) accept(b *queue.Batch) {
	n.outstanding++
	n.outstandingReqs += b.Size()
	if !b.Strict {
		n.beBatchesWindow++
		if b.Model != n.lastBEModel {
			n.lastBEModel = b.Model
			n.beSolo = b.Model.SoloTime
		}
	}
	if tr := n.sim.Tracer(); tr.Enabled() {
		ev := obs.At(n.sim.Now(), obs.KindDispatch)
		ev.Node = n.id
		ev.Batch = b.ID
		ev.Model = b.Model.Name()
		ev.Strict = b.Strict
		ev.Requests = b.Size()
		tr.Emit(ev)
	}
	n.acquire(b, 1)
}

// acquire obtains a container for the batch. attempt numbers this try
// (1-based) across injected cold-start failures; without chaos it is
// always 1 and the flow is the classic acquire→(cold start)→ready.
func (n *node) acquire(b *queue.Batch, attempt int) {
	cold, err := n.scaler.Acquire(b.Model.Name())
	if err != nil {
		// Defensive: Acquire only fails on empty names.
		n.abandon(b, false)
		return
	}
	if cold > 0 {
		if tr := n.sim.Tracer(); tr.Enabled() {
			ev := obs.At(n.sim.Now(), obs.KindColdStart)
			ev.Node = n.id
			ev.Batch = b.ID
			ev.Model = b.Model.Name()
			ev.Value = cold
			tr.Emit(ev)
		}
		if n.cluster.chaos.ColdStartFailure(n.id, b.ID) {
			// The load fails only after the boot delay was paid. The boot
			// timer is node-local, so it runs on the node's lane.
			n.sim.MustAfter(cold, func() { n.coldStartFailed(b, attempt) })
			return
		}
		n.sim.MustAfter(cold, func() { n.ready(b, cold) })
		return
	}
	n.ready(b, 0)
}

// coldStartFailed handles an injected container-load failure: the
// half-booted container is torn down and the batch retries under
// bounded exponential backoff, dropping once the budget is exhausted.
func (n *node) coldStartFailed(b *queue.Batch, attempt int) {
	if err := n.scaler.Abort(b.Model.Name()); err != nil {
		panic(fmt.Sprintf("cluster: node %d: %v", n.id, err)) // a container accounting bug
	}
	delay, ok := n.cluster.chaos.RetryDelay(n.id, attempt)
	if !ok {
		n.abandon(b, false)
		return
	}
	if tr := n.sim.Tracer(); tr.Enabled() {
		ev := obs.At(n.sim.Now(), obs.KindRetry)
		ev.Node = n.id
		ev.Batch = b.ID
		ev.Model = b.Model.Name()
		ev.Strict = b.Strict
		ev.Value = delay
		ev.Requests = attempt
		tr.Emit(ev)
	}
	n.sim.MustAfter(delay, func() { n.acquire(b, attempt+1) })
}

// leave takes a batch the node accepted off its outstanding work and
// releases the batch's container when it holds one (a failed Acquire or
// an aborted cold start holds none). Every way a batch leaves the node —
// completed, requeued, evacuated or abandoned — goes through here.
func (n *node) leave(b *queue.Batch, holdsContainer bool) {
	n.outstanding--
	n.outstandingReqs -= b.Size()
	if holdsContainer {
		if err := n.scaler.Release(b.Model.Name()); err != nil {
			panic(fmt.Sprintf("cluster: node %d: %v", n.id, err)) // a container accounting bug
		}
	}
}

// abandon drops a batch the node accepted and no slice holds: it leaves
// the node, is counted and traced as a drop, reaches the live plane as
// drop records, and returns to the batcher's freelist with the
// completed batches.
func (n *node) abandon(b *queue.Batch, holdsContainer bool) {
	n.leave(b, holdsContainer)
	n.drop(b.ID, b.Size())
	n.bufferDrop(b)
	n.cluster.spent = append(n.cluster.spent, b)
}

// drop counts and traces lost requests on this node. Runs in a node
// lane event or a root event.
func (n *node) drop(batchID uint64, requests int) {
	n.cluster.dropped += requests
	if tr := n.sim.Tracer(); tr.Enabled() {
		ev := obs.At(n.sim.Now(), obs.KindDrop)
		ev.Node = n.id
		ev.Batch = batchID
		ev.Requests = requests
		tr.Emit(ev)
	}
}

// ready places a batch whose container is warm.
func (n *node) ready(b *queue.Batch, cold float64) {
	if n.gpu.Reconfiguring() {
		n.held = append(n.held, heldBatch{batch: b, cold: cold})
		return
	}
	if err := n.place(b, cold); err != nil {
		n.held = append(n.held, heldBatch{batch: b, cold: cold})
	}
}

func (n *node) place(b *queue.Batch, cold float64) error {
	sl, err := n.policy.Place(n.gpu, b.Model, b.Strict)
	if err != nil {
		return err
	}
	jitter := n.serviceJitter()
	// An injected straggler spikes this batch's service time on top of
	// the ordinary lognormal variability.
	jitter *= n.cluster.chaos.Straggler(n.id, b.ID)
	job := n.jobFree.Get()
	job.W = b.Model
	job.Strict = b.Strict
	job.Requests = b.Size()
	job.SMFrac = n.policy.SMCap(b.Strict)
	job.Scale = batchScale(b)
	job.Jitter = jitter
	job.Enqueued = n.sim.Now()
	job.ColdStart = cold
	job.TraceID = b.ID
	job.Ctx = b
	job.OnDone = n.onDone
	job.OnFail = n.onFail
	if err := sl.Submit(job); err != nil {
		// Submit rejects before retaining the job (closed slice or
		// over-memory), so the object can go straight back.
		n.jobFree.Put(job)
		return err
	}
	return nil
}

// complete records metrics for every request in the batch and frees the
// container. The batch's requests share every sample field but their
// latency, queueing delay and tenant, so they are recorded in one call
// that computes only what the recorder's level reads: a count-level run
// records how many met the SLO, a sketch-level run each latency, and a
// row-level run the full sample with the batch's latency breakdown. A
// live cluster hands the requests to the control plane instead.
func (n *node) complete(b *queue.Batch, j *gpu.Job) {
	c := n.cluster
	n.leave(b, true)
	c.completed += b.Size()
	finished, warmup := j.Finished(), c.cfg.Warmup
	switch {
	case c.live:
		prof := ""
		if sl := j.Slice(); sl != nil {
			prof = sl.Prof.Name
		}
		// The completion outlives the scratch buffer, so it keeps a copy.
		c.done = append(c.done, Completion{
			Time:        finished,
			Profile:     prof,
			ExecSeconds: max(0, finished-j.Started()),
			Rows:        slices.Clone(n.fullRows(b, j)),
		})
	case c.cfg.Level == metrics.Counts:
		slo := b.Model.SLO(c.cfg.SLOMultiplier)
		count, met := 0, 0
		for _, arrival := range b.Arrivals {
			if arrival < warmup {
				continue
			}
			count++
			// The latency AddBatch would compare: finished - arrival.
			if finished-arrival <= slo {
				met++
			}
		}
		n.recorder.AddCounts(metrics.Sample{Strict: b.Strict, SLO: slo, Weight: 1}, count, met)
	case c.cfg.Level == metrics.Sketches:
		// A sketch recorder reads the class, SLO and weight of the
		// sample and each row's latency, nothing else.
		rows := slices.Grow(c.rows[:0], b.Size())
		for _, arrival := range b.Arrivals {
			if arrival >= warmup {
				rows = append(rows, metrics.BatchRow{Latency: finished - arrival})
			}
		}
		c.rows = rows
		n.recorder.AddBatch(metrics.Sample{Strict: b.Strict, SLO: b.Model.SLO(c.cfg.SLOMultiplier), Weight: 1}, rows)
	default:
		n.recorder.AddBatch(metrics.Sample{
			Model:     b.Model.Name(),
			Strict:    b.Strict,
			SLO:       b.Model.SLO(c.cfg.SLOMultiplier),
			Breakdown: j.Breakdown(),
			Completed: finished,
			Weight:    1,
		}, n.fullRows(b, j))
	}
	n.recycle(b, j)
}

// fullRows fills the cluster's scratch buffer with one full row per
// request of a completed batch that arrived after the warmup.
func (n *node) fullRows(b *queue.Batch, j *gpu.Job) []metrics.BatchRow {
	c := n.cluster
	finished, started := j.Finished(), j.Started()
	rows := slices.Grow(c.rows[:0], b.Size())
	for i, arrival := range b.Arrivals {
		if arrival < c.cfg.Warmup {
			continue
		}
		// Arrival→finish wall time already spans the cold start (the
		// container booted between dispatch and execution).
		rows = append(rows, metrics.BatchRow{
			Latency: finished - arrival,
			Queue:   max(0, started-arrival-j.ColdStart),
			Tenant:  b.Tenant(i),
		})
	}
	c.rows = rows
	return rows
}

// recycle hands a completed batch and its job back once complete has
// read what it records. The engine detached the job before OnDone, so
// both hot objects recycle here: the job immediately (pumpHeld may
// place with it), the batch at the next dispatch barrier.
func (n *node) recycle(b *queue.Batch, j *gpu.Job) {
	n.cluster.spent = append(n.cluster.spent, b)
	n.jobFree.Put(j)
	n.pumpHeld()
}

// jobFailed reroutes a batch whose job was killed or displaced by an
// injected slice failure: the container reservation is released and
// the batch re-enters global dispatch — strict always; best-effort
// only while no work is already waiting for a node, so under fault
// pressure BE is shed to protect strict deadlines.
func (n *node) jobFailed(b *queue.Batch, j *gpu.Job) {
	if !b.Strict && len(n.cluster.pendingGlobal) > 0 {
		n.abandon(b, true)
		return
	}
	n.leave(b, true)
	n.cluster.requeued += b.Size()
	if tr := n.sim.Tracer(); tr.Enabled() {
		ev := obs.At(n.sim.Now(), obs.KindOrphanRequeue)
		ev.Node = n.id
		ev.Batch = b.ID
		ev.Model = b.Model.Name()
		ev.Strict = b.Strict
		ev.Requests = b.Size()
		tr.Emit(ev)
	}
	n.cluster.dispatch(b)
}

// InjectSliceFault implements chaos.Targets: fail one MIG slice on the
// node and reroute the orphaned batches, strict work first so the
// degraded capacity serves deadline work ahead of best effort.
func (c *Cluster) InjectSliceFault(nodeID int, pick, repair float64) {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return
	}
	n := c.nodes[nodeID]
	killed, displaced := n.gpu.FailSlice(pick, repair)
	orphans := append(killed, displaced...)
	for _, j := range orphans {
		if j.Strict && j.OnFail != nil {
			j.OnFail(j)
		}
	}
	for _, j := range orphans {
		if !j.Strict && j.OnFail != nil {
			j.OnFail(j)
		}
	}
	// FailSlice armed the repair timer just above, so this pump fires
	// right after the slice reopens (same timestamp, later sequence)
	// and the node resumes without waiting for the next monitor tick.
	c.sim.MustAfter(repair, func() {
		n.pumpHeld()
		c.drainPendingGlobal()
	})
}

// StormDomains implements chaos.Targets: one domain per marketplace
// provider, or a single domain without a fleet or on the Table 3
// tariff.
func (c *Cluster) StormDomains() int {
	if c.fleet == nil {
		return 1
	}
	return c.fleet.StormDomains()
}

// InjectStorm implements chaos.Targets: correlated revocation notices
// delivered through the fleet, centred on one storm domain. Without a
// fleet there are no spot VMs to preempt and the storm dissipates.
func (c *Cluster) InjectStorm(domain int, frac float64) int {
	if c.fleet == nil {
		return 0
	}
	return c.fleet.StormDomain(domain, frac)
}

// pumpHeld retries batches that previously failed placement.
func (n *node) pumpHeld() {
	if len(n.held) == 0 || n.gpu.Reconfiguring() {
		return
	}
	if !n.up && !n.cluster.stopped {
		return
	}
	remaining := n.held[:0]
	for _, h := range n.held {
		if err := n.place(h.batch, h.cold); err != nil {
			remaining = append(remaining, h)
		}
	}
	n.held = remaining
}

// evacuate re-dispatches held batches to other nodes (used when the VM
// backing this node drains or dies).
func (n *node) evacuate() {
	held := n.held
	n.held = nil
	for _, h := range held {
		// The node is down, so dispatch never picks it and its
		// container can go first. Cold-start time already paid stays
		// paid; the batch re-enters dispatch and may pay another one
		// elsewhere.
		n.leave(h.batch, true)
		n.cluster.dispatch(h.batch)
	}
}

// reconfigure initiates a MIG geometry change on the node's GPU.
func (n *node) reconfigure(desired gpu.Geometry) {
	err := n.gpu.Reconfigure(desired, func(displaced []*gpu.Job) {
		// Runs when the downtime timer fires, in node-lane context.
		n.cluster.budget.Release()
		n.cluster.timeline = append(n.cluster.timeline, GeometryEvent{
			Time:     n.sim.Now(),
			Node:     n.id,
			Geometry: desired.String(),
		})
		for _, j := range displaced {
			n.resubmit(j)
		}
		n.pumpHeld()
	})
	if err != nil {
		n.cluster.budget.Release()
	}
}

// resubmit places a displaced (never-started) job onto the new geometry.
// A job that fits no slice is abandoned with its batch.
func (n *node) resubmit(j *gpu.Job) {
	b := j.Ctx.(*queue.Batch)
	m := b.Model
	sl, err := n.policy.Place(n.gpu, m, j.Strict)
	if err != nil {
		// The job keeps its jitter draw, enqueue time and cold start:
		// holding the batch would re-place it as a new job, drawing
		// jitter again and restarting its queueing clock. So it takes
		// any slice its model fits.
		for _, cand := range n.gpu.Slices() {
			if !cand.Failed() && m.MemGB(cand.Prof) <= cand.Prof.MemGB {
				sl = cand
				break
			}
		}
	}
	if sl == nil || sl.Submit(j) != nil {
		n.abandon(b, true)
		n.jobFree.Put(j)
	}
}

// serviceJitter samples the lognormal execution-time multiplier (unit
// mean) modelling data-dependent batch variability. Each node draws
// from its own derived stream, so the draw order is the node's own
// placement order — independent of every other node.
//
//protean:hotpath
func (n *node) serviceJitter() float64 {
	return math.Exp(float64(n.rng.NormFloat64()*jitterSigma) - float64(jitterSigma2/2))
}

// batchScale converts batch fill into a work/bandwidth scale: GPU batch
// execution is sublinear in batch size, so a partial batch still pays a
// fixed fraction of the full-batch cost.
//
//protean:hotpath
func batchScale(b *queue.Batch) float64 {
	fill := float64(b.Size()) / float64(b.Model.BatchSize())
	if fill > 1 {
		fill = 1
	}
	return 0.25 + float64(0.75*fill)
}
