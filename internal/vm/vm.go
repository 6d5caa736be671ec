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
	"strconv"

	"protean/internal/market"
	"protean/internal/obs"
	"protean/internal/sim"
)

// Kind distinguishes VM purchase tiers. It is the marketplace's own, so
// a lease's tier needs no conversion on either backing.
type Kind = market.Kind

const (
	// KindOnDemand is a reliable, full-price VM.
	KindOnDemand = market.KindOnDemand
	// KindSpot is a discounted VM revocable at any time.
	KindSpot = market.KindSpot
)

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
	// Mode is the tariff's procurement policy.
	Mode Mode
	// Pricing is the tariff (PricingAWS by default).
	Pricing Pricing
	// Availability is the tariff's spot-market scenario.
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
	// market for metering, and Mode, Pricing and Availability must
	// stay unset. nil keeps the Table 3 tariff.
	Market *market.Market
	// Procurement is the policy consulted for every acquire and
	// replacement decision (required with Market).
	Procurement market.Policy
}

// Fixed lease-lifecycle parameters, in seconds.
const (
	// noticeMin and noticeMax bound the eviction notice lead time
	// (§2.3), on the tariff and for every market provider alike.
	noticeMin float64 = 30
	noticeMax float64 = 120
	// retryInterval is how long a node left without capacity waits
	// before procurement asks again (ModeSpotOnly, or the market).
	retryInterval float64 = 30
	// migrateInterval is the period of Procurement.Rebalance passes on
	// a market fleet.
	migrateInterval float64 = 120
)

// Drain-and-replace works only because a replacement VM (provisioned
// in market.ProvisionTime on either backing) is up before the shortest
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

type nodeState int

const (
	// nodeNew is a slot whose bootstrap lease is still being arranged.
	nodeNew nodeState = iota
	nodeUp
	nodeDraining
	nodeDown
)

// node is one worker slot and the lease backing it.
type node struct {
	state nodeState
	gen   int // increments per revocation notice; stale evictions no-op
	// kind is the lease's tier, 0 while no lease backs the slot.
	kind Kind
	// provider indexes Fleet.providers: the lease's P_rev, provider
	// name and storm domain.
	provider int
	acquired float64       // when the lease attached; the tariff bills from it
	lease    *market.Lease // the marketplace lease; nil on the tariff
}

// backing is how a node gets and pays for its lease: the Table 3 tariff
// or the marketplace. The rest of a lease's life (revocation checks,
// notices, eviction, retries and storms) is the fleet's and runs the
// same on either.
type backing interface {
	// acquire obtains a lease for node i, to attach through Fleet.attach,
	// and reports whether one is on its way. It counts failed requests.
	acquire(f *Fleet, i int) bool
	// release ends the lease backing n and settles its bill.
	release(f *Fleet, n *node)
	// cost returns the dollars spent so far and the on-demand $/hour
	// the baseline is priced at.
	cost(f *Fleet) (dollars, onDemandHourly float64)
}

// Fleet manages the VM leases backing every worker node and meters their
// cost.
type Fleet struct {
	cfg     Config
	sim     *sim.Sim
	rng     *sim.Stream // market stream, derived at construction; root context only
	backing backing
	// providers holds each storm domain's revocation profile: the
	// market's catalog, or for the tariff one unnamed domain with the
	// scenario's P_rev that every storm hits in full.
	providers []market.ProviderConfig

	nodes      []node
	ticker     *sim.Ticker
	migTicker  *sim.Ticker // market only
	started    bool
	stopped    bool
	notices    int
	failures   int // failed spot draws (tariff) or lease requests (market)
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
	f := &Fleet{sim: s, nodes: make([]node, cfg.Nodes)}
	if cfg.Market == nil {
		switch {
		case cfg.Mode < ModeOnDemandOnly || cfg.Mode > ModeSpotOnly:
			return nil, fmt.Errorf("vm: unknown mode %d", int(cfg.Mode))
		case cfg.Availability.PRev < 0 || cfg.Availability.PRev > 1:
			return nil, fmt.Errorf("vm: P_rev %v out of [0, 1]", cfg.Availability.PRev)
		}
		f.backing = &tariff{}
		f.providers = []market.ProviderConfig{{PRev: cfg.Availability.PRev, StormCoupling: 1}}
	} else {
		switch {
		case cfg.Procurement == nil:
			return nil, errors.New("vm: market without a procurement policy")
		case cfg.Mode != 0 || cfg.Pricing != (Pricing{}) || cfg.Availability != (Availability{}):
			return nil, errors.New("vm: Mode, Pricing and Availability do not apply to a market fleet")
		}
		f.backing = marketplace{}
		for p := range cfg.Market.Providers() {
			f.providers = append(f.providers, cfg.Market.ProviderConfig(p))
		}
	}
	cfg.applyDefaults()
	f.cfg = cfg
	f.rng = s.Rand().Child("vm/fleet")
	return f, nil
}

// Start acquires the initial lease for every node and begins revocation
// checks. Marketplace requests at virtual time 0 provision
// synchronously, so either bootstrap fleet is up before the run clock
// starts.
func (f *Fleet) Start() error {
	if f.started {
		return errors.New("vm: fleet already started")
	}
	f.started = true
	for i := range f.nodes {
		if !f.backing.acquire(f, i) {
			f.nodes[i].state = nodeDown
			f.retry(i)
		}
	}
	// A market fleet always checks: besides revocation draws the tick
	// renews every bound lease's heartbeat, keeping the market's orphan
	// sweeper off a live fleet's back.
	if f.cfg.Market != nil || f.cfg.Mode != ModeOnDemandOnly && f.cfg.Availability.PRev > 0 {
		tk, err := f.sim.Every(f.cfg.CheckInterval, f.checkRevocations)
		if err != nil {
			return fmt.Errorf("vm: start revocation checks: %w", err)
		}
		f.ticker = tk
	}
	if f.cfg.Market != nil {
		mt, err := f.sim.Every(migrateInterval, f.rebalance)
		if err != nil {
			return fmt.Errorf("vm: start migration ticker: %w", err)
		}
		f.migTicker = mt
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
	for i := range f.nodes {
		f.detach(&f.nodes[i])
	}
}

// attach backs node i with a lease of the given kind from provider p
// (l is the marketplace lease, nil on the tariff), releasing the lease
// it replaces.
func (f *Fleet) attach(i int, kind Kind, p int, l *market.Lease) {
	n := &f.nodes[i]
	f.detach(n)
	n.state, n.kind, n.provider, n.lease, n.acquired = nodeUp, kind, p, l, f.sim.Now()
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMLease)
		ev.Node = i
		ev.Detail = kind.String()
		ev.Model = f.providers[p].Name
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeUp(i, kind)
	}
}

// detach ends whatever lease backs n.
func (f *Fleet) detach(n *node) {
	if n.kind != 0 {
		f.backing.release(f, n)
		n.kind, n.lease = 0, nil
	}
}

// checkRevocations is the fixed-interval revocation process of §5, each
// lease drawing against its provider's P_rev. The same tick renews
// marketplace heartbeats (the check interval is well inside the
// market's heartbeat-miss window).
func (f *Fleet) checkRevocations() {
	if f.stopped {
		return
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		if n.lease != nil {
			f.cfg.Market.Heartbeat(n.lease)
		}
		if n.kind != KindSpot || n.state != nodeUp || f.rng.Float64() >= f.providers[n.provider].PRev {
			continue
		}
		f.notice(i)
	}
}

// notice delivers one revocation notice to node i: the node drains for
// a uniformly drawn 30–120 s lead time while procurement arranges a
// replacement, then the eviction fires at the deadline.
func (f *Fleet) notice(i int) {
	n := &f.nodes[i]
	f.notices++
	n.gen++
	gen := n.gen
	lead := noticeMin + f.rng.Float64()*(noticeMax-noticeMin)
	deadline := f.sim.Now() + lead
	n.state = nodeDraining
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMNotice)
		ev.Node = i
		ev.Value = deadline
		ev.Detail = f.providers[n.provider].Name
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeDraining(i, deadline)
	}
	// Procurement reacts immediately to the notice (§4.5). If it found
	// no replacement, the node goes down at the deadline and retries.
	replaced := f.backing.acquire(f, i)
	f.sim.MustAfter(lead, func() { f.evict(i, gen, !replaced) })
}

// evict takes a drained node offline at its deadline, unless a
// replacement attached or a later notice superseded this one.
func (f *Fleet) evict(i, gen int, retry bool) {
	n := &f.nodes[i]
	if f.stopped || n.gen != gen || n.state != nodeDraining {
		return
	}
	f.detach(n)
	n.state = nodeDown
	if tr := f.sim.Tracer(); tr.Enabled() {
		ev := obs.At(f.sim.Now(), obs.KindVMDown)
		ev.Node = i
		tr.Emit(ev)
	}
	if f.cfg.Listener != nil {
		f.cfg.Listener.NodeDown(i)
	}
	if retry {
		f.retry(i)
	}
}

// retry asks the backing again for a node left down, every
// retryInterval until a lease is on its way.
func (f *Fleet) retry(i int) {
	f.sim.MustAfter(retryInterval, func() {
		if !f.stopped && f.nodes[i].state == nodeDown && !f.backing.acquire(f, i) {
			f.retry(i)
		}
	})
}

// tariff is the fixed Table 3 tariff of §5: a spot request succeeds
// with probability 1 − P_rev, drawn on the fleet's stream, and leases
// bill at the fleet's Pricing.
type tariff struct {
	accrued float64 // cost of released leases
}

// acquire follows the Mode: spot when the draw succeeds, else on-demand
// unless spot-only. A replacement for a draining node attaches after
// market.ProvisionTime; any other lease attaches at once.
func (t *tariff) acquire(f *Fleet, i int) bool {
	n := &f.nodes[i]
	kind := KindOnDemand
	if f.cfg.Mode != ModeOnDemandOnly {
		if f.rng.Float64() >= f.cfg.Availability.PRev {
			kind = KindSpot
		} else {
			if n.state != nodeNew { // bootstrap draws are not counted
				f.failures++
			}
			if f.cfg.Mode == ModeSpotOnly {
				return false
			}
		}
	}
	if n.state != nodeDraining {
		f.attach(i, kind, 0, nil)
		return true
	}
	f.sim.MustAfter(market.ProvisionTime, func() {
		if !f.stopped {
			f.attach(i, kind, 0, nil)
		}
	})
	return true
}

func (t *tariff) release(f *Fleet, n *node) { t.accrued += t.bill(f, n) }

// bill is the cost of n's lease from its attach to now.
func (t *tariff) bill(f *Fleet, n *node) float64 {
	return (f.sim.Now() - n.acquired) / 3600 * f.cfg.Pricing.Hourly(n.kind)
}

func (t *tariff) cost(f *Fleet) (float64, float64) {
	total := t.accrued
	for i := range f.nodes {
		if n := &f.nodes[i]; n.kind != 0 {
			total += t.bill(f, n)
		}
	}
	return total, f.cfg.Pricing.OnDemandHourly
}

// marketplace procures through the multi-provider spot market: the
// procurement policy picks a source, the lease is requested two-phase
// and billed on the market's ledger.
type marketplace struct{}

func (marketplace) acquire(f *Fleet, i int) bool {
	dec, ok := f.cfg.Procurement.Choose(f.cfg.Market.View())
	if ok = ok && f.request(i, dec, false) == nil; !ok {
		f.failures++
	}
	return ok
}

func (marketplace) release(f *Fleet, n *node) { f.cfg.Market.Release(n.lease) }

// cost reads the market ledger (settled plus open segments at current
// prices) and prices the baseline at the catalog's cheapest on-demand
// rate.
func (marketplace) cost(f *Fleet) (float64, float64) {
	return f.cfg.Market.TotalDollars(), f.cfg.Market.CheapestOnDemandHourly()
}

// request opens a two-phase acquisition for node i. When the lease is
// ready it binds and attaches (the provisioning lead time is inside the
// minimum notice window, so a replacement attaches before its
// predecessor's eviction). A migration lands only if the node is up and
// still holds the lease it had when the request opened; otherwise the
// new lease goes back unused.
func (f *Fleet) request(i int, dec market.Decision, migrate bool) error {
	old := f.nodes[i].lease
	_, err := f.cfg.Market.Request("node/"+strconv.Itoa(i), dec.Provider, dec.Kind, func(l *market.Lease) {
		if n := &f.nodes[i]; f.stopped || migrate && (n.state != nodeUp || n.lease != old) {
			f.cfg.Market.Release(l)
			return
		}
		if err := f.cfg.Market.Bind(l); err != nil {
			return
		}
		if migrate {
			f.migrations++
		}
		f.attach(i, l.Kind, l.Provider, l)
	})
	return err
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
	for i := range f.nodes {
		if n := &f.nodes[i]; n.lease != nil && n.lease.State == market.StateBound && n.state == nodeUp {
			bound = append(bound, n.lease)
		}
	}
	if len(bound) == 0 {
		return
	}
	for _, mg := range f.cfg.Procurement.Rebalance(f.cfg.Market.View(), bound) {
		for i := range f.nodes {
			if f.nodes[i].lease == mg.Lease {
				f.migrate(i, mg.To)
				break
			}
		}
	}
}

// migrate moves an up node onto a new lease; a sold-out target just
// skips this round's migration.
func (f *Fleet) migrate(i int, dec market.Decision) { _ = f.request(i, dec, true) }

// Migrations returns the number of completed procurement migrations.
func (f *Fleet) Migrations() int { return f.migrations }

// Market returns the marketplace backing the fleet (nil on the Table 3
// tariff).
func (f *Fleet) Market() *market.Market { return f.cfg.Market }

// StormDomains returns the number of distinct storm domains the fleet
// exposes to the chaos injector: one per marketplace provider, or a
// single domain on the tariff.
func (f *Fleet) StormDomains() int { return len(f.providers) }

// StormDomain injects a correlated spot-preemption storm (chaos
// subsystem) centred on one storm domain: live spot nodes receive a
// revocation notice at once, exactly as if the provider reclaimed a
// capacity block, and the notice count is returned. The domain's spot
// leases see the full fraction, and every other domain sees frac × its
// StormCoupling (a capacity crunch at one provider tightens the others'
// spot pools too), swept in catalog order. The tariff's one domain
// always sees the full fraction.
func (f *Fleet) StormDomain(domain int, frac float64) int {
	if f.stopped || !f.started || frac <= 0 {
		return 0
	}
	total := 0
	for p, pc := range f.providers {
		eff := frac
		if p != domain {
			eff = frac * pc.StormCoupling
		}
		total += f.storm(p, eff)
	}
	return total
}

// storm sends notice to ceil(frac × eligible) of the up spot nodes on
// provider p, lowest node index first, for determinism.
func (f *Fleet) storm(p int, frac float64) int {
	if frac <= 0 {
		return 0
	}
	var eligible []int
	for i := range f.nodes {
		if n := &f.nodes[i]; n.state == nodeUp && n.kind == KindSpot && n.provider == p {
			eligible = append(eligible, i)
		}
	}
	k := min(int(math.Ceil(frac*float64(len(eligible)))), len(eligible))
	for _, i := range eligible[:k] {
		f.notice(i)
	}
	return k
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
// start time for the baseline.
func (f *Fleet) Cost(since float64) CostReport {
	total, hourly := f.backing.cost(f)
	baseline := float64(f.cfg.Nodes) * (f.sim.Now() - since) / 3600 * hourly
	norm := 0.0
	if baseline > 0 {
		norm = total / baseline
	}
	return CostReport{Dollars: total, OnDemandBaseline: baseline, Normalized: norm}
}
