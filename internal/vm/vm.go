// Package vm emulates the IaaS layer of §4.5 and §5 exactly the way the
// paper does ("we emulate only the spot/on-demand VM worker aspect — the
// pricing and revocations"): each worker node is backed by a VM lease;
// spot leases receive revocation notices at fixed check intervals with
// probability P_rev; the cost-aware procurement module reacts to notices
// by acquiring a replacement (spot first, on-demand fallback) inside the
// 30–120 s notice window; and a cost meter integrates Table 3 pricing
// over lease lifetimes.
package vm

import (
	"errors"
	"fmt"
	"math"

	"protean/internal/market"
	"protean/internal/obs"
	"protean/internal/sim"
)

// Kind distinguishes VM purchase tiers.
type Kind int

const (
	// KindOnDemand is a reliable, full-price VM.
	KindOnDemand Kind = iota + 1
	// KindSpot is a discounted VM revocable at any time.
	KindSpot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOnDemand:
		return "on-demand"
	case KindSpot:
		return "spot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pricing is hourly pricing for an 8×A100 instance (Table 3).
type Pricing struct {
	// Provider names the IaaS provider.
	Provider string
	// OnDemandHourly is the on-demand $/hour.
	OnDemandHourly float64
	// SpotHourly is the spot $/hour.
	SpotHourly float64
}

// Table 3 of the paper: on-demand and spot hourly pricing for an 8×A100
// instance averaged across US-east and US-west.
var (
	PricingAWS   = Pricing{Provider: "AWS", OnDemandHourly: 32.7726, SpotHourly: 9.8318}
	PricingAzure = Pricing{Provider: "Microsoft Azure", OnDemandHourly: 32.7700, SpotHourly: 18.0235}
	PricingGCP   = Pricing{Provider: "Google Cloud", OnDemandHourly: 30.0846, SpotHourly: 8.8147}
)

// Providers lists the Table 3 pricing rows.
func Providers() []Pricing { return []Pricing{PricingAWS, PricingAzure, PricingGCP} }

// DefaultMarketCatalog builds a marketplace catalog from the Table 3
// provider rows: finite spot inventory, moderate price volatility, and
// per-provider revocation profiles (Azure historically revokes least,
// GCP most among the three). Callers wanting different dynamics build
// their own []market.ProviderConfig.
func DefaultMarketCatalog() []market.ProviderConfig {
	rows := Providers()
	vol := []float64{0.3, 0.2, 0.3}
	prev := []float64{0.25, 0.15, 0.3}
	out := make([]market.ProviderConfig, 0, len(rows))
	for i, r := range rows {
		out = append(out, market.ProviderConfig{
			Name: r.Provider, SpotInventory: 6,
			OnDemandHourly: r.OnDemandHourly, SpotBaseHourly: r.SpotHourly,
			Volatility: vol[i], RegimeProb: 0.2,
			PRev: prev[i], StormCoupling: 0.25,
		})
	}
	return out
}

// Savings is the fractional cost reduction of spot vs on-demand.
func (p Pricing) Savings() float64 {
	if p.OnDemandHourly <= 0 {
		return 0
	}
	return 1 - p.SpotHourly/p.OnDemandHourly
}

// Hourly returns the price for a VM kind.
func (p Pricing) Hourly(k Kind) float64 {
	if k == KindSpot {
		return p.SpotHourly
	}
	return p.OnDemandHourly
}

// Mode selects the procurement policy of §4.5.
type Mode int

const (
	// ModeOnDemandOnly uses only reliable VMs (the baselines' setup).
	ModeOnDemandOnly Mode = iota + 1
	// ModeSpotPreferred is PROTEAN's policy: spot when available,
	// on-demand fallback on spot failure.
	ModeSpotPreferred
	// ModeSpotOnly aggressively uses only spot VMs (the Spot Only
	// scheme of Figure 9).
	ModeSpotOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOnDemandOnly:
		return "on-demand-only"
	case ModeSpotPreferred:
		return "spot-preferred"
	case ModeSpotOnly:
		return "spot-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Availability describes the spot market state via the per-check
// revocation probability P_rev (derived from Narayanan et al., §5).
type Availability struct {
	// Name labels the scenario.
	Name string
	// PRev is the probability a spot VM receives a revocation notice at
	// each check interval; 1 − PRev is also the probability a fresh
	// spot request succeeds.
	PRev float64
}

// The three spot-availability scenarios of §5.
var (
	AvailabilityHigh     = Availability{Name: "high", PRev: 0}
	AvailabilityModerate = Availability{Name: "moderate", PRev: 0.354}
	AvailabilityLow      = Availability{Name: "low", PRev: 0.708}
)

// Listener receives node lifecycle events from the fleet.
type Listener interface {
	// NodeDraining announces a revocation notice: the node must stop
	// accepting work and will be evicted at deadline.
	NodeDraining(node int, deadline float64)
	// NodeDown announces the node went offline before its replacement
	// was ready.
	NodeDown(node int)
	// NodeUp announces the node is (back) online, backed by kind.
	NodeUp(node int, kind Kind)
}

// Config configures a Fleet.
type Config struct {
	// Nodes is the number of worker node slots.
	Nodes int
	// Mode is the procurement policy.
	Mode Mode
	// Pricing is the tariff (PricingAWS by default).
	Pricing Pricing
	// Availability is the spot-market scenario.
	Availability Availability
	// CheckInterval is the revocation check period (default 60 s).
	CheckInterval float64
	// Listener receives node lifecycle events (optional).
	Listener Listener

	// Market, when set, replaces the fixed Table 3 single-provider
	// tariff with the multi-provider spot marketplace: leases are
	// acquired two-phase through the market's catalog, revocation
	// profiles and prices come per provider, and the cost meter reads
	// the market's ledger. The fleet assumes exclusive use of the
	// market for metering. nil keeps the legacy path bit-for-bit.
	Market *market.Market
	// Procurement is the policy consulted for every acquire and
	// replacement decision (required with Market).
	Procurement market.Policy
}

// Fixed lease-lifecycle parameters, in seconds.
const (
	// noticeMin and noticeMax bound the eviction notice lead time
	// (§2.3), on the legacy path and for every market provider alike.
	noticeMin float64 = 30
	noticeMax float64 = 120
	// retryInterval is how long a node left without capacity waits
	// before procurement asks again (ModeSpotOnly, or the market).
	retryInterval float64 = 30
	// migrateInterval is the period of Procurement.Rebalance passes in
	// market mode.
	migrateInterval float64 = 120
)

// Drain-and-replace works only because a replacement VM (provisioned
// in market.ProvisionTime on either path) is up before the shortest
// notice expires. The map literal repeats the key false, and so fails
// to compile, if that ever stops holding.
var _ = map[bool]struct{}{false: {}, market.ProvisionTime < noticeMin: {}}

func (c *Config) applyDefaults() {
	if c.Pricing == (Pricing{}) {
		c.Pricing = PricingAWS
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 60
	}
}

// lease is one VM attached to a node slot, billed from acquired at the
// fleet's tariff.
type lease struct {
	kind     Kind
	acquired float64
}

type nodeState int

const (
	nodeUp nodeState = iota + 1
	nodeDraining
	nodeDown
)

// Fleet manages the VM leases backing every worker node and meters their
// cost.
type Fleet struct {
	cfg Config
	sim *sim.Sim
	rng *sim.Stream // market stream, derived at construction; root context only

	states    []nodeState
	leases    []*lease
	noticeGen []int   // increments per revocation notice; stale evictions no-op
	accrued   float64 // cost of released leases
	ticker    *sim.Ticker
	started   bool
	stopped   bool
	notices   int
	failures  int // spot requests that failed

	// Market mode: per-node marketplace leases, consumer labels, and
	// the migration ticker.
	mleases    []*market.Lease
	consumers  []string
	migTicker  *sim.Ticker
	migrations int
}

// NewFleet validates cfg and returns an idle fleet; call Start to
// acquire the initial leases.
func NewFleet(s *sim.Sim, cfg Config) (*Fleet, error) {
	if s == nil {
		return nil, errors.New("vm: nil sim")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("vm: %d nodes, want > 0", cfg.Nodes)
	}
	if cfg.Market != nil {
		if cfg.Procurement == nil {
			return nil, errors.New("vm: market without a procurement policy")
		}
		if cfg.Mode == 0 {
			// The procurement policy supersedes Mode in market mode.
			cfg.Mode = ModeSpotPreferred
		}
	}
	switch cfg.Mode {
	case ModeOnDemandOnly, ModeSpotPreferred, ModeSpotOnly:
	default:
		return nil, fmt.Errorf("vm: unknown mode %d", int(cfg.Mode))
	}
	if cfg.Availability.PRev < 0 || cfg.Availability.PRev > 1 {
		return nil, fmt.Errorf("vm: P_rev %v out of [0, 1]", cfg.Availability.PRev)
	}
	cfg.applyDefaults()
	f := &Fleet{
		cfg:       cfg,
		sim:       s,
		rng:       s.Rand().Child("vm/fleet"),
		states:    make([]nodeState, cfg.Nodes),
		leases:    make([]*lease, cfg.Nodes),
		noticeGen: make([]int, cfg.Nodes),
	}
	if cfg.Market != nil {
		f.mleases = make([]*market.Lease, cfg.Nodes)
		f.consumers = make([]string, cfg.Nodes)
		for i := range f.consumers {
			f.consumers[i] = fmt.Sprintf("node/%d", i)
		}
	}
	return f, nil
}

// marketMode reports whether procurement goes through the marketplace.
func (f *Fleet) marketMode() bool { return f.cfg.Market != nil }

// Start acquires the initial lease for every node and begins revocation
// checks.
func (f *Fleet) Start() error {
	if f.started {
		return errors.New("vm: fleet already started")
	}
	f.started = true
	if f.marketMode() {
		return f.startMarket()
	}
	for i := range f.leases {
		kind := KindOnDemand
		if f.cfg.Mode != ModeOnDemandOnly && f.spotAvailable() {
			kind = KindSpot
		} else if f.cfg.Mode == ModeSpotOnly {
			// Spot-only keeps waiting for spot capacity.
			f.states[i] = nodeDown
			f.scheduleSpotRetry(i)
			continue
		}
		f.attach(i, kind)
	}
	if f.cfg.Mode != ModeOnDemandOnly && f.cfg.Availability.PRev > 0 {
		tk, err := f.sim.Every(f.cfg.CheckInterval, f.checkRevocations)
		if err != nil {
			return fmt.Errorf("vm: start revocation checks: %w", err)
		}
		f.ticker = tk
	}
	return nil
}

// Stop releases every lease and halts revocation checks, finalizing
// costs.
func (f *Fleet) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	if f.ticker != nil {
		f.ticker.Stop()
	}
	if f.migTicker != nil {
		f.migTicker.Stop()
	}
	for i := range f.leases {
		f.releaseNode(i)
	}
}

// startMarket bootstraps every node through the procurement policy and
// arms the revocation/heartbeat and migration tickers. Requests at
// virtual time 0 provision synchronously, so the bootstrap fleet is up
// before the run clock starts, like the legacy path's initial attach.
func (f *Fleet) startMarket() error {
	for i := range f.leases {
		f.states[i] = nodeDown
		f.procureMarket(i)
	}
	// The check ticker always runs in market mode: besides revocation
	// draws it renews every bound lease's heartbeat, keeping the
	// market's orphan sweeper off a live fleet's back.
	tk, err := f.sim.Every(f.cfg.CheckInterval, f.checkRevocations)
	if err != nil {
		return fmt.Errorf("vm: start revocation checks: %w", err)
	}
	f.ticker = tk
	mt, err := f.sim.Every(migrateInterval, f.rebalance)
	if err != nil {
		return fmt.Errorf("vm: start migration ticker: %w", err)
	}
	f.migTicker = mt
	return nil
}

func (f *Fleet) attach(node int, kind Kind) {
	f.release(node)
	f.leases[node] = &lease{kind: kind, acquired: f.sim.Now()}
	f.states[node] = nodeUp
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMLease)
		ev.Node = node
		ev.Detail = kind.String()
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeUp(node, kind)
	}
}

func (f *Fleet) release(node int) {
	l := f.leases[node]
	if l == nil {
		return
	}
	f.accrued += (f.sim.Now() - l.acquired) / 3600 * f.cfg.Pricing.Hourly(l.kind)
	f.leases[node] = nil
}

// releaseNode returns whatever lease backs the node — marketplace or
// legacy — settling its billing.
func (f *Fleet) releaseNode(node int) {
	if f.marketMode() {
		if l := f.mleases[node]; l != nil {
			f.cfg.Market.Release(l)
			f.mleases[node] = nil
		}
		return
	}
	f.release(node)
}

// spotAvailable samples whether a spot request succeeds right now.
// Draws come from the fleet's own child stream: market events only
// ever run in root-simulation context, so their order is the root
// event order regardless of the shard count.
func (f *Fleet) spotAvailable() bool {
	return f.rng.Float64() >= f.cfg.Availability.PRev
}

// checkRevocations is the fixed-interval revocation process of §5. In
// market mode the probability comes from each lease's provider profile
// and the same tick renews heartbeats (the check interval is well
// inside the market's heartbeat-miss window).
func (f *Fleet) checkRevocations() {
	if f.stopped {
		return
	}
	if f.marketMode() {
		for i, l := range f.mleases {
			if l == nil {
				continue
			}
			f.cfg.Market.Heartbeat(l)
			if l.Kind != market.KindSpot || f.states[i] != nodeUp {
				continue
			}
			if f.rng.Float64() >= f.cfg.Market.ProviderConfig(l.Provider).PRev {
				continue
			}
			f.noticeMarket(i)
		}
		return
	}
	for i, l := range f.leases {
		if l == nil || l.kind != KindSpot || f.states[i] != nodeUp {
			continue
		}
		if f.rng.Float64() >= f.cfg.Availability.PRev {
			continue
		}
		f.notice(i)
	}
}

// notice delivers one revocation notice to node i: the node drains for
// a uniformly drawn 30–120 s lead time while procurement arranges a
// replacement per the mode, then the eviction fires at the deadline.
func (f *Fleet) notice(i int) {
	f.notices++
	f.noticeGen[i]++
	gen := f.noticeGen[i]
	notice := noticeMin + f.rng.Float64()*(noticeMax-noticeMin)
	deadline := f.sim.Now() + notice
	f.states[i] = nodeDraining
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMNotice)
		ev.Node = i
		ev.Value = deadline
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeDraining(i, deadline)
	}
	// Procurement reacts immediately to the notice (§4.5): retry
	// spot, fall back to on-demand unless spot-only.
	replacementReady := false
	if f.spotAvailable() {
		f.sim.MustAfter(market.ProvisionTime, func() { f.replace(i, KindSpot) })
		replacementReady = true
	} else if f.cfg.Mode == ModeSpotPreferred {
		f.failures++
		f.sim.MustAfter(market.ProvisionTime, func() { f.replace(i, KindOnDemand) })
		replacementReady = true
	} else {
		f.failures++
	}
	// Eviction fires at the deadline; if no replacement was
	// arranged, the node goes down and spot-only keeps retrying.
	needRetry := !replacementReady
	f.sim.MustAfter(notice, func() { f.evict(i, gen, needRetry) })
}

// noticeMarket delivers a revocation notice to a market-backed node:
// the notice window is the legacy path's, and the replacement is
// whatever the procurement policy picks from the current market view.
func (f *Fleet) noticeMarket(i int) {
	l := f.mleases[i]
	pc := f.cfg.Market.ProviderConfig(l.Provider)
	f.notices++
	f.noticeGen[i]++
	gen := f.noticeGen[i]
	notice := noticeMin + f.rng.Float64()*(noticeMax-noticeMin)
	deadline := f.sim.Now() + notice
	f.states[i] = nodeDraining
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMNotice)
		ev.Node = i
		ev.Value = deadline
		ev.Detail = pc.Name
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeDraining(i, deadline)
	}
	replacementReady := false
	if dec, ok := f.cfg.Procurement.Choose(f.cfg.Market.View()); ok {
		if _, err := f.requestMarket(i, dec); err == nil {
			replacementReady = true
		} else {
			f.failures++
		}
	} else {
		f.failures++
	}
	needRetry := !replacementReady
	f.sim.MustAfter(notice, func() { f.evict(i, gen, needRetry) })
}

// procureMarket asks the procurement policy for a source and opens a
// two-phase acquisition for a down node, retrying later when nothing
// is affordable or in stock.
func (f *Fleet) procureMarket(node int) {
	if f.stopped {
		return
	}
	dec, ok := f.cfg.Procurement.Choose(f.cfg.Market.View())
	if !ok {
		f.failures++
		f.retryMarket(node)
		return
	}
	if _, err := f.requestMarket(node, dec); err != nil {
		f.failures++
		f.retryMarket(node)
	}
}

// retryMarket re-runs procurement for a node still down after the
// retry interval.
func (f *Fleet) retryMarket(node int) {
	f.sim.MustAfter(retryInterval, func() {
		if f.stopped || f.states[node] != nodeDown {
			return
		}
		f.procureMarket(node)
	})
}

// requestMarket opens the two-phase acquisition: on readiness the
// lease is bound and attached to the node (the provisioning lead time
// is inside the minimum notice window, so replacements attach before
// their predecessor's eviction).
func (f *Fleet) requestMarket(node int, dec market.Decision) (*market.Lease, error) {
	return f.cfg.Market.Request(f.consumers[node], dec.Provider, dec.Kind, func(l *market.Lease) {
		if f.stopped {
			f.cfg.Market.Release(l)
			return
		}
		if err := f.cfg.Market.Bind(l); err != nil {
			return
		}
		f.attachMarket(node, l)
	})
}

// attachMarket swaps the node onto a bound marketplace lease,
// releasing (and settling) the previous one.
func (f *Fleet) attachMarket(node int, l *market.Lease) {
	if old := f.mleases[node]; old != nil {
		f.cfg.Market.Release(old)
	}
	f.mleases[node] = l
	f.states[node] = nodeUp
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMLease)
		ev.Node = node
		ev.Detail = Kind(int(l.Kind)).String()
		ev.Model = f.cfg.Market.ProviderConfig(l.Provider).Name
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeUp(node, Kind(int(l.Kind)))
	}
}

// rebalance runs one Procurement.Rebalance pass over the bound fleet
// and executes the proposed migrations (drain-and-replace: the new
// lease binds before the old one releases, so migration causes no
// downtime).
func (f *Fleet) rebalance() {
	if f.stopped {
		return
	}
	var bound []*market.Lease
	for i, l := range f.mleases {
		if l != nil && l.State == market.StateBound && f.states[i] == nodeUp {
			bound = append(bound, l)
		}
	}
	if len(bound) == 0 {
		return
	}
	for _, mg := range f.cfg.Procurement.Rebalance(f.cfg.Market.View(), bound) {
		node := -1
		for i, l := range f.mleases {
			if l == mg.Lease {
				node = i
				break
			}
		}
		if node >= 0 {
			f.migrate(node, mg.To)
		}
	}
}

// migrate opens a replacement lease for an up node; the swap lands
// only if the node's lease is unchanged when the replacement is ready.
func (f *Fleet) migrate(node int, dec market.Decision) {
	old := f.mleases[node]
	_, err := f.cfg.Market.Request(f.consumers[node], dec.Provider, dec.Kind, func(l *market.Lease) {
		if f.stopped || f.states[node] != nodeUp || f.mleases[node] != old {
			// The node was revoked or re-leased while the replacement
			// provisioned; return it unused.
			f.cfg.Market.Release(l)
			return
		}
		if err := f.cfg.Market.Bind(l); err != nil {
			return
		}
		f.migrations++
		f.attachMarket(node, l)
	})
	_ = err // a sold-out target just skips this round's migration
}

// Migrations returns the number of completed procurement migrations.
func (f *Fleet) Migrations() int { return f.migrations }

// Market returns the marketplace backing the fleet (nil in legacy
// single-provider mode).
func (f *Fleet) Market() *market.Market { return f.cfg.Market }

// StormDomains returns the number of distinct storm domains the fleet
// exposes to the chaos injector: one per marketplace provider, or a
// single domain in legacy single-provider mode.
func (f *Fleet) StormDomains() int {
	if f.marketMode() {
		return f.cfg.Market.Providers()
	}
	return 1
}

// StormDomain injects a correlated spot-preemption storm (chaos
// subsystem) centred on one storm domain: live spot nodes receive a
// revocation notice at once, exactly as if the provider reclaimed a
// capacity block, and the notice count is returned. A legacy fleet is
// one domain that sees the full fraction. In market mode the domain is
// a provider: its spot leases see the full fraction, and every other
// provider sees frac × its StormCoupling (a capacity crunch at one
// provider tightens the others' spot pools too), swept in catalog
// order.
func (f *Fleet) StormDomain(domain int, frac float64) int {
	if f.stopped || !f.started || frac <= 0 {
		return 0
	}
	if !f.marketMode() {
		return f.storm(frac, func(i int) bool {
			l := f.leases[i]
			return l != nil && l.kind == KindSpot
		}, f.notice)
	}
	total := 0
	for p := 0; p < f.cfg.Market.Providers(); p++ {
		eff := frac
		if p != domain {
			eff = frac * f.cfg.Market.ProviderConfig(p).StormCoupling
		}
		total += f.storm(eff, func(i int) bool {
			l := f.mleases[i]
			return l != nil && l.Provider == p && l.Kind == market.KindSpot
		}, f.noticeMarket)
	}
	return total
}

// storm sends notice to ceil(frac × eligible) of the up nodes whose
// lease spot accepts, lowest node index first, for determinism.
func (f *Fleet) storm(frac float64, spot func(node int) bool, notice func(node int)) int {
	if frac <= 0 {
		return 0
	}
	var eligible []int
	for i, st := range f.states {
		if st == nodeUp && spot(i) {
			eligible = append(eligible, i)
		}
	}
	k := min(int(math.Ceil(frac*float64(len(eligible)))), len(eligible))
	for _, i := range eligible[:k] {
		notice(i)
	}
	return k
}

// replace swaps the node's lease for a fresh one of the given kind. The
// old VM keeps running (and billing) until its eviction deadline; the
// paper's drain-and-replace means the swap itself causes no downtime.
func (f *Fleet) replace(node int, kind Kind) {
	if f.stopped {
		return
	}
	f.attach(node, kind)
}

func (f *Fleet) evict(node, gen int, needRetry bool) {
	if f.stopped {
		return
	}
	if f.noticeGen[node] != gen || f.states[node] != nodeDraining {
		return // stale eviction, or replacement already attached
	}
	f.releaseNode(node)
	f.states[node] = nodeDown
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMDown)
		ev.Node = node
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeDown(node)
	}
	if needRetry {
		if f.marketMode() {
			f.retryMarket(node)
		} else {
			f.scheduleSpotRetry(node)
		}
	}
}

// scheduleSpotRetry keeps requesting spot capacity for a down node
// (spot-only mode).
func (f *Fleet) scheduleSpotRetry(node int) {
	f.sim.MustAfter(retryInterval, func() {
		if f.stopped || f.states[node] != nodeDown {
			return
		}
		if f.spotAvailable() {
			f.attach(node, KindSpot)
			return
		}
		f.failures++
		f.scheduleSpotRetry(node)
	})
}

// CostReport summarizes metered spending.
type CostReport struct {
	// Dollars is the total accrued cost.
	Dollars float64 `json:"dollars"`
	// OnDemandBaseline is what the same node-slots would have cost on
	// on-demand VMs for the full elapsed time.
	OnDemandBaseline float64 `json:"onDemandBaseline"`
	// Normalized is Dollars / OnDemandBaseline.
	Normalized float64 `json:"normalized"`
}

// Cost returns spending accrued up to now, measured since the given
// start time for the baseline. In market mode the total is the
// marketplace ledger (settled plus open segments at current prices)
// and the baseline uses the catalog's cheapest on-demand rate.
func (f *Fleet) Cost(since float64) CostReport {
	now := f.sim.Now()
	if f.marketMode() {
		total := f.cfg.Market.TotalDollars()
		baseline := float64(f.cfg.Nodes) * (now - since) / 3600 * f.cfg.Market.CheapestOnDemandHourly()
		norm := 0.0
		if baseline > 0 {
			norm = total / baseline
		}
		return CostReport{Dollars: total, OnDemandBaseline: baseline, Normalized: norm}
	}
	total := f.accrued
	for _, l := range f.leases {
		if l != nil {
			total += (now - l.acquired) / 3600 * f.cfg.Pricing.Hourly(l.kind)
		}
	}
	baseline := float64(f.cfg.Nodes) * (now - since) / 3600 * f.cfg.Pricing.OnDemandHourly
	norm := 0.0
	if baseline > 0 {
		norm = total / baseline
	}
	return CostReport{Dollars: total, OnDemandBaseline: baseline, Normalized: norm}
}
