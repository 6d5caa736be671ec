// Package controlplane is proteand's live multi-tenant serving layer:
// a long-running control plane that admits streaming request traffic
// onto the simulated cluster, enforces per-tenant SLO classes, scales
// idle tenants to zero, and meters usage per second for billing.
//
// The heart of the package is the paced wall-clock→virtual-time bridge
// (bridge.go): wall-clock arrivals are quantized onto the simulation
// clock, every externally visible mutation (tenant registration,
// ingest) is appended to an ingest log with its quantized virtual
// timestamp, and all scheduling state evolves only at virtual-time
// events or at logged boundaries. Replaying a recorded log against the
// same seed therefore reproduces every admission decision and usage
// rollup byte-for-byte — the live serving path inherits the
// simulator's determinism contract.
//
// The plane is safe for concurrent use: every operation serializes on
// one mutex, mirroring the single-threaded discrete-event core.
package controlplane

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"protean/internal/autoscale"
	"protean/internal/chaos"
	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// Options configures a Plane.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Nodes is the worker count (default 8).
	Nodes int
	// ChaosScale enables deterministic fault injection at a multiple of
	// the reference mix (0 disables).
	ChaosScale float64
	// Quantum is the wall→virtual quantization step in seconds (default
	// 10 ms): arrivals land on the next quantum boundary.
	Quantum float64
	// KeepWarmDefault is the tenant idle window before scale-to-zero,
	// in virtual seconds (default 10; tenants can override).
	KeepWarmDefault float64
	// WallNow supplies the wall clock in seconds for the paced bridge
	// (injected by cmd/proteand; internal packages never read the wall
	// clock themselves). nil runs the plane in manual mode: callers
	// drive virtual time explicitly via IngestAt — the mode
	// used by replay and deterministic tests.
	WallNow func() float64
	// Market enables the multi-provider GPU spot marketplace under the
	// plane: worker VMs are leased through two-phase provisioning from
	// the default Table 3 catalog, spot prices walk on the plane's
	// virtual clock, and `GET /v1/market/prices` serves live quotes.
	// Off by default — market-off planes are byte-identical to planes
	// built before the marketplace existed.
	Market bool
	// Registry optionally serves the plane's per-tenant and pool
	// Prometheus series (and, with Market, the marketplace's
	// price/spend/lease series), read from the plane at scrape time.
	// Each New replaces the series of the plane registered before it.
	Registry *obs.Registry
}

// liveKeepAlive is the container delayed-termination window in seconds:
// much shorter than the batch default, since the tenant keep-warm layer
// above it owns long-horizon warmth.
const liveKeepAlive = 60

func (o *Options) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes <= 0 {
		o.Nodes = 8
	}
	if o.Quantum <= 0 {
		o.Quantum = 0.010
	}
	if o.KeepWarmDefault <= 0 {
		o.KeepWarmDefault = 10
	}
}

// usagePeriod is the metering rollup period in virtual seconds.
const usagePeriod = 1.0

// maxPrewarmCount caps TenantConfig.PrewarmCount: pre-warming holds one
// idle container record per count on every node, so an unbounded count
// would exhaust memory at registration.
const maxPrewarmCount = 1024

// Plane is the live control plane: one virtual-time cluster serving
// many tenants. All exported methods are safe for concurrent use.
type Plane struct {
	mu      sync.Mutex
	opts    Options
	sim     *sim.Sim
	cluster *cluster.Cluster
	ring    *ringTracer
	market  *market.Market

	tenants map[string]*tenant
	order   []string // registration order (deterministic iteration)

	predictor *metrics.DelayPredictor
	log       []LogEntry
	logVT     float64 // VT of the latest log entry
	vnow      float64 // quantized virtual high-water mark
	epoch     float64 // wall time of plane creation (WallNow mode)
	epochSet  bool
	reqSeq    uint64
	decCount  int    // admission decisions made
	decHash   uint64 // FNV-1a fingerprint over rendered decisions
	drained   bool
	usage     *sim.Ticker
}

// New builds and starts a plane.
func New(opts Options) (*Plane, error) {
	opts.applyDefaults()
	s := sim.New(opts.Seed)
	ring := &ringTracer{}
	s.SetTracer(ring)
	var chaosCfg chaos.Config
	if opts.ChaosScale > 0 {
		chaosCfg = chaos.DefaultConfig().Scaled(opts.ChaosScale)
	}
	// The marketplace (when enabled) must exist before the cluster: its
	// price streams derive from the sim's root RNG and its fleet config
	// rides into cluster.New. Market-off planes skip this entirely, so
	// they draw the exact RNG sequence of pre-marketplace planes.
	var mk *market.Market
	var vmCfg *vm.Config
	if opts.Market {
		var err error
		mk, err = market.New(s, market.Config{}, vm.DefaultMarketCatalog())
		if err != nil {
			return nil, err
		}
		if err := mk.Start(); err != nil {
			return nil, err
		}
		vmCfg = &vm.Config{Market: mk, Procurement: market.CheapestSpot()}
	}
	c, err := cluster.New(s, cluster.Config{
		Nodes:         opts.Nodes,
		Policy:        core.NewProtean(core.ProteanConfig{}),
		SLOMultiplier: model.DefaultSLOMultiplier,
		Chaos:         chaosCfg,
		Scaler:        autoscale.Config{KeepAlive: liveKeepAlive},
		VM:            vmCfg,
	})
	if err != nil {
		return nil, err
	}
	p := &Plane{
		opts:      opts,
		sim:       s,
		cluster:   c,
		ring:      ring,
		market:    mk,
		tenants:   make(map[string]*tenant),
		predictor: metrics.NewDelayPredictor(),
		decHash:   fnvOffset,
	}
	if err := c.StartLive(); err != nil {
		return nil, err
	}
	tick, err := s.Every(usagePeriod, p.usageTick)
	if err != nil {
		return nil, err
	}
	p.usage = tick
	if opts.Registry != nil {
		p.register(opts.Registry)
	}
	return p, nil
}

// Options returns the plane's resolved configuration.
func (p *Plane) Options() Options { return p.opts }

// RegisterTenant adds a tenant at the current virtual time. Tenant ids
// are unique; registration is logged so replays reproduce it.
func (p *Plane) RegisterTenant(cfg TenantConfig) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drained {
		return errDrained
	}
	vt := p.wallVT()
	return p.registerLocked(cfg, vt)
}

func (p *Plane) registerLocked(cfg TenantConfig, vt float64) error {
	if cfg.ID == "" {
		return errors.New("controlplane: tenant id required")
	}
	if _, dup := p.tenants[cfg.ID]; dup {
		return fmt.Errorf("controlplane: tenant %q already registered", cfg.ID)
	}
	m, ok := model.ByName(cfg.Model)
	if !ok {
		return fmt.Errorf("controlplane: unknown model %q", cfg.Model)
	}
	if cfg.PrewarmCount > maxPrewarmCount {
		return fmt.Errorf("controlplane: prewarmCount %d exceeds %d", cfg.PrewarmCount, maxPrewarmCount)
	}
	class, err := resolveClass(cfg)
	if err != nil {
		return err
	}
	if err := p.advanceLocked(vt); err != nil {
		return err
	}
	t := newTenant(cfg, class, m, p.opts, vt)
	p.tenants[cfg.ID] = t
	p.order = append(p.order, cfg.ID)
	// Conservative provisioning: give the new tenant warm capacity so
	// its first requests skip the cold start, exactly like the batch
	// path's pre-warmed pools.
	if t.prewarm > 0 {
		p.cluster.PrewarmModel(m.Name(), t.prewarm)
	}
	c := cfg
	p.record(LogEntry{Op: OpTenant, VT: vt, Config: &c})
	return nil
}

// Tenants returns registered tenant ids in registration order.
func (p *Plane) Tenants() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// Now returns the plane's current virtual time.
func (p *Plane) Now() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sim.Now()
}

// Backlog returns the cluster's current backlog statistics.
func (p *Plane) Backlog() cluster.BacklogStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cluster.Backlog()
}

// MarketQuotes returns every provider's current marketplace offer,
// advancing virtual time to the present first so quotes reflect the
// latest price ticks. nil when the plane runs without a market.
func (p *Plane) MarketQuotes() ([]market.Quote, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.market == nil {
		return nil, nil
	}
	if !p.drained {
		if err := p.advanceLocked(p.wallVT()); err != nil {
			return nil, err
		}
	}
	return p.market.Quotes(), nil
}

// Ingest admits (or rejects) a batch of n requests for a tenant at the
// current wall-clock-derived virtual time — the live serving path.
func (p *Plane) Ingest(tenantID string, n int) (Decision, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drained {
		return Decision{}, errDrained
	}
	return p.ingestLocked(tenantID, n, p.wallVT())
}

// IngestAt admits a batch at an explicit virtual time (quantized, and
// clamped to never move backwards) — the manual-mode and replay path.
func (p *Plane) IngestAt(vt float64, tenantID string, n int) (Decision, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drained {
		return Decision{}, errDrained
	}
	return p.ingestLocked(tenantID, n, p.quantize(vt))
}

// Sync advances virtual time to the current wall-derived instant
// without ingesting anything, collecting any newly finished work. In
// manual mode it is a no-op. Unlogged on purpose: intermediate
// advances are invisible to the replay contract (the event sequence
// depends only on event timestamps, not on advance partitioning).
func (p *Plane) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drained {
		return nil
	}
	return p.advanceLocked(p.wallVT())
}

// ingestLocked runs the admission state machine at virtual time vt:
// advance the simulation to vt, decide admit/shed/reject from the token
// bucket and the predicted queueing delay, and submit admitted requests
// to the gateway. Every attempt is logged; decisions are recomputed on
// replay and fingerprinted so replays can prove byte-identity.
func (p *Plane) ingestLocked(tenantID string, n int, vt float64) (Decision, error) {
	t, ok := p.tenants[tenantID]
	if !ok {
		return Decision{}, fmt.Errorf("controlplane: unknown tenant %q", tenantID)
	}
	if n <= 0 {
		n = 1
	}
	if n > MaxIngestN {
		return Decision{}, fmt.Errorf("controlplane: %d requests exceed %d", n, MaxIngestN)
	}
	if err := p.advanceLocked(vt); err != nil {
		return Decision{}, err
	}
	p.record(LogEntry{Op: OpIngest, VT: vt, Tenant: tenantID, N: n})
	dec := p.decide(t, n, vt)
	p.recordDecision(dec)
	switch dec.Outcome {
	case OutcomeAdmit:
		p.wakeIfSuspended(t, vt, "request")
		t.lastActive = vt
		t.admitted += n
		t.arrivalsTick += n
		for i := 0; i < n; i++ {
			p.reqSeq++
			req := trace.Request{
				ID:      p.reqSeq,
				Tenant:  tenantID,
				Model:   t.model,
				Strict:  t.class.Strict,
				Arrival: vt,
			}
			if err := p.cluster.Ingest(req); err != nil {
				t.dropped++
			}
		}
	case OutcomeShed:
		t.shed += n
	case OutcomeReject:
		t.rejected += n
	}
	p.emitDecision(dec)
	return dec, nil
}

// advanceLocked advances the simulation (never backwards), then folds
// newly completed and dropped work into the per-tenant accounts.
func (p *Plane) advanceLocked(vt float64) error {
	if vt > p.vnow {
		p.vnow = vt
	}
	if p.vnow > p.sim.Now() {
		if err := p.cluster.AdvanceTo(p.vnow); err != nil {
			return err
		}
	}
	p.collect()
	return nil
}

// collect drains the cluster's buffered completion and drop records —
// a globally time-ordered stream regardless of how advances were
// partitioned — updating usage accounts, per-tenant recorders, and the
// admission predictor.
func (p *Plane) collect() {
	comps, drops := p.cluster.CollectLive()
	for i := range comps {
		p.applyCompletion(&comps[i])
	}
	for _, d := range drops {
		if t, ok := p.tenants[d.Tenant]; ok {
			t.dropped += d.Requests
			t.windowAt(d.Time).Dropped += d.Requests
		}
	}
}

// applyCompletion attributes one finished batch: slice-seconds split
// across member requests by share, latency samples into per-tenant
// recorders, SLO-violation counts against per-class targets, and
// queueing observations into the delay predictor.
func (p *Plane) applyCompletion(c *cluster.Completion) {
	share := c.ExecSeconds / float64(len(c.Rows))
	for _, r := range c.Rows {
		t, ok := p.tenants[r.Tenant]
		if !ok {
			continue
		}
		// Queueing delay and execution time feed the global predictor in
		// completion order.
		p.predictor.Observe(r.Queue, math.Max(0, r.Latency-r.Queue))
		t.completed++
		w := t.windowAt(c.Time)
		w.Completed++
		w.SliceSeconds += share
		t.addSliceSeconds(c.Profile, share)
		// Per-class target, not the batch-path model SLO: the tenant's
		// class owns the violation semantics.
		t.recorder.Add(r.Sample(metrics.Sample{
			Strict:    t.class.Strict,
			SLO:       t.target,
			Completed: c.Time,
			Weight:    1,
		}))
		if r.Latency > t.target {
			t.violations++
			w.Violations++
		}
	}
}

// usageTick runs once per virtual second as a root simulation event:
// it closes each tenant's metering window, evaluates scale-to-zero and
// pre-warm hints, and emits usage-tick trace events. Tenants are
// visited in registration order.
func (p *Plane) usageTick() {
	now := p.sim.Now()
	for _, id := range p.order {
		t := p.tenants[id]
		rate := float64(t.arrivalsTick) / usagePeriod
		prev := t.rateEWMA.PredictOr(0)
		t.rateEWMA.Observe(rate)
		surging := t.consumedTick > 0.5*t.burst && t.burst > 0
		rising := rate > 2*prev && t.arrivalsTick >= 2
		t.arrivalsTick = 0
		t.consumedTick = 0

		if !t.suspended && now-t.lastActive >= t.keepWarm {
			p.suspendTenant(t, now)
		} else if !t.suspended && (surging || rising) && p.cluster.WarmContainers(t.model.Name()) == 0 {
			// Pre-warm hint: the token bucket shows rising demand and no
			// warm container exists — provision ahead of the burst.
			p.cluster.PrewarmModel(t.model.Name(), t.prewarm)
		}
		p.emitUsageTick(t, now)
	}
}

// suspendTenant scales an idle tenant to zero: idle containers for its
// model are reclaimed immediately unless another active tenant shares
// the model (model pools are shared; the last tenant out turns off the
// lights).
func (p *Plane) suspendTenant(t *tenant, now float64) {
	t.suspended = true
	t.suspends++
	reclaimed := 0
	if !p.modelShared(t) {
		reclaimed = p.cluster.DrainModel(t.model.Name())
	}
	if tr := p.sim.Tracer(); tr.Enabled() {
		ev := obs.At(now, obs.KindTenantSuspend)
		ev.Detail = t.cfg.ID
		ev.Model = t.model.Name()
		ev.Value = now - t.lastActive
		ev.Requests = reclaimed
		tr.Emit(ev)
	}
}

// wakeIfSuspended resumes a suspended tenant. The admitted request
// wakes capacity through the ordinary cold-start model — no shortcut.
func (p *Plane) wakeIfSuspended(t *tenant, now float64, reason string) {
	if !t.suspended {
		return
	}
	t.suspended = false
	t.resumes++
	if tr := p.sim.Tracer(); tr.Enabled() {
		ev := obs.At(now, obs.KindTenantResume)
		ev.Detail = t.cfg.ID
		ev.Model = reason
		tr.Emit(ev)
	}
}

// modelShared reports whether another non-suspended tenant serves the
// same model.
func (p *Plane) modelShared(t *tenant) bool {
	for _, id := range p.order {
		o := p.tenants[id]
		if o != t && !o.suspended && o.model.Name() == t.model.Name() {
			return true
		}
	}
	return false
}

func (p *Plane) emitUsageTick(t *tenant, now float64) {
	tr := p.sim.Tracer()
	if !tr.Enabled() {
		return
	}
	w := t.windowAt(now - usagePeriod/2)
	ev := obs.At(now, obs.KindUsageTick)
	ev.Detail = t.cfg.ID
	ev.Requests = w.Completed
	ev.Value = w.SliceSeconds
	tr.Emit(ev)
}

func (p *Plane) emitDecision(d Decision) {
	tr := p.sim.Tracer()
	if !tr.Enabled() {
		return
	}
	var kind obs.Kind
	switch d.Outcome {
	case OutcomeAdmit:
		kind = obs.KindTenantAdmit
	case OutcomeShed:
		kind = obs.KindTenantShed
	default:
		kind = obs.KindTenantReject
	}
	ev := obs.At(d.VirtualTime, kind)
	ev.Detail = d.Tenant
	ev.Model = d.Reason
	ev.Requests = d.Requests
	ev.Value = d.PredictedDelaySeconds
	tr.Emit(ev)
}

// Summary is the final account of a drained plane.
type Summary struct {
	// Duration is the virtual time served.
	Duration float64 `json:"durationSeconds"`
	// Result is the cluster's final result (availability, utilization).
	Availability float64 `json:"availability"`
	ColdStarts   int     `json:"coldStarts"`
	// Tenants holds every tenant's final usage in registration order.
	Tenants []Usage `json:"tenants"`
	// Market is the marketplace rollup (lease counts, total dollars,
	// price paths, per-consumer spend); nil without Options.Market.
	Market *market.Summary `json:"market,omitempty"`
}

// Drain freezes the plane: remaining in-flight work completes, final
// usage is collected, and no further ingest is accepted.
func (p *Plane) Drain() (*Summary, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drained {
		return nil, errDrained
	}
	p.record(LogEntry{Op: OpSnapshot, VT: p.vnow})
	p.drained = true
	p.usage.Stop()
	res, err := p.cluster.Drain()
	if err != nil {
		return nil, err
	}
	p.collect()
	sum := &Summary{
		Duration:     p.sim.Now(),
		Availability: res.Availability.Rate(),
		ColdStarts:   res.ColdStarts,
		Market:       res.Market,
	}
	for _, id := range p.order {
		sum.Tenants = append(sum.Tenants, p.usageLocked(p.tenants[id]))
	}
	return sum, nil
}

// Events returns a copy of the plane's buffered lifecycle events
// (bounded ring, oldest first), optionally filtered by kind names.
func (p *Plane) Events(kinds ...string) []obs.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.snapshot(kinds)
}

// quantize maps a timestamp onto the next quantum boundary, clamped so
// virtual time never moves backwards.
func (p *Plane) quantize(x float64) float64 {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	q := p.opts.Quantum
	vt := math.Ceil(x/q) * q
	if vt < p.vnow {
		vt = p.vnow
	}
	return vt
}

// wallVT derives the current quantized virtual time from the injected
// wall clock; in manual mode time holds at the high-water mark.
func (p *Plane) wallVT() float64 {
	if p.opts.WallNow == nil {
		return p.vnow
	}
	w := p.opts.WallNow()
	if !p.epochSet {
		p.epoch = w
		p.epochSet = true
	}
	return p.quantize(w - p.epoch)
}

var errDrained = errors.New("controlplane: plane already drained")
