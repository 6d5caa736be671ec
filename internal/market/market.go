// Package market is the multi-provider GPU spot marketplace behind
// PROTEAN's procurement layer (ROADMAP item 4). It generalises the
// paper's frozen Table 3 two-row market into a provider catalog with
// finite spot inventory, seeded mean-reverting spot-price processes
// with regime shifts, per-provider revocation profiles, two-phase
// lease provisioning (request → pending → bind) with heartbeat/orphan
// detection, and per-consumer cost tracking.
//
// Determinism contract: every price path is a pure function of the
// simulation seed. Each provider draws from its own child stream
// (`market/price/<name>`), derived without consuming anything from the
// parent, and prices advance only on virtual-time ticks executed in
// root-simulation context — so a market-off run is byte-identical to a
// build without this package, and a market-on run is byte-identical
// across repeats.
//
// The package imports only internal/sim and internal/obs, keeping it
// usable from every layer (vm, cluster, controlplane) without cycles.
package market

import (
	"errors"
	"fmt"
	"math"

	"protean/internal/obs"
	"protean/internal/sim"
)

// Kind distinguishes VM purchase tiers. internal/vm's Kind is an alias
// of it, so both fleet backings share one tier type.
type Kind int

const (
	// KindOnDemand is a reliable, full-price VM with unbounded supply.
	KindOnDemand Kind = iota + 1
	// KindSpot is a discounted VM with finite inventory, revocable at
	// any time.
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

// ProviderConfig describes one provider's inventory, pricing, spot
// price process, and revocation profile.
type ProviderConfig struct {
	// Name labels the provider ("AWS").
	Name string
	// SpotInventory is the finite number of spot instances the provider
	// can lease out simultaneously; on-demand supply is unbounded.
	SpotInventory int
	// OnDemandHourly is the fixed on-demand $/hour.
	OnDemandHourly float64
	// SpotBaseHourly is the long-run anchor of the spot price process
	// and its initial value.
	SpotBaseHourly float64

	// Volatility is the relative per-√hour standard deviation of the
	// spot price walk (0 freezes the price at the anchor).
	Volatility float64
	// RegimeProb is the per-tick probability that an expiring regime is
	// replaced by a shifted one rather than the base anchor.
	RegimeProb float64

	// PRev is the per-check probability a spot lease receives a
	// revocation notice (the fleet draws it on its own stream).
	PRev float64
	// StormCoupling is the fraction of another provider's preemption
	// storm that spills onto this provider's spot leases (0: storms on
	// other providers never touch this one).
	StormCoupling float64
}

func (c *ProviderConfig) applyDefaults() {
	if c.SpotInventory < 0 {
		c.SpotInventory = 0
	}
	if c.SpotBaseHourly <= 0 {
		c.SpotBaseHourly = c.OnDemandHourly
	}
}

func (c *ProviderConfig) validate() error {
	if c.Name == "" {
		return errors.New("market: provider without a name")
	}
	if c.OnDemandHourly <= 0 {
		return fmt.Errorf("market: %s: on-demand price %v, want > 0", c.Name, c.OnDemandHourly)
	}
	if c.PRev < 0 || c.PRev > 1 {
		return fmt.Errorf("market: %s: P_rev %v out of [0, 1]", c.Name, c.PRev)
	}
	if c.Volatility < 0 || c.RegimeProb < 0 || c.RegimeProb > 1 {
		return fmt.Errorf("market: %s: bad price-process params (vol %v, regime prob %v)",
			c.Name, c.Volatility, c.RegimeProb)
	}
	return nil
}

// Spot price process parameters, shared by every provider.
const (
	// reversion is the mean-reversion strength per hour toward the
	// current regime anchor.
	reversion float64 = 2
	// regimeLow and regimeHigh bound a shifted regime's anchor as a
	// multiple of SpotBaseHourly.
	regimeLow, regimeHigh float64 = 0.7, 1.8
	// regimeMeanDuration is the mean regime length in seconds.
	regimeMeanDuration float64 = 600
	// ewmaAlpha is the smoothing factor of the per-provider spot price
	// forecast exposed to policies.
	ewmaAlpha float64 = 0.2
)

// Marketplace timing, in virtual seconds.
const (
	// tickInterval is the spot-price evaluation period.
	tickInterval float64 = 15
	// ProvisionTime is the request → ready lead time. Requests issued at
	// virtual time 0 provision synchronously: the bootstrap fleet exists
	// before the run clock starts, exactly like the single-provider
	// fleet attaching its initial leases at t=0.
	ProvisionTime float64 = 25
	// bindTimeout is how long a ready lease waits for its consumer's
	// Bind before it is reclaimed as an orphan.
	bindTimeout float64 = 30
	// heartbeatInterval is the orphan sweeper period.
	heartbeatInterval float64 = 60
	// heartbeatMisses is how many missed intervals orphan a bound lease.
	heartbeatMisses float64 = 3
)

// Config tunes the marketplace. It has no settable field left: every
// tuning value is a constant above.
type Config struct{}

// provider is one catalog entry's live state.
type provider struct {
	cfg ProviderConfig
	rng *sim.Stream

	spot       float64 // current spot $/hour
	anchor     float64 // current regime anchor $/hour
	regimeLeft float64 // seconds until the regime is re-drawn
	ewma       float64 // forecast
	free       int     // remaining spot inventory

	// price-path summary (deterministic, for reports)
	minSpot, maxSpot, sumSpot float64
	ticks                     int
}

// Market is the marketplace: catalog, price processes, and the
// two-phase lease ledger. All methods must be called in
// root-simulation context (never from a node lane).
type Market struct {
	sim       *sim.Sim
	providers []*provider

	leases []*Lease // index = ID-1; entries are never removed

	spend float64 // settled dollars across all closed billing segments

	consumers    map[string]int // name → index into consumer slices
	consumerName []string       // first-charge order
	consumerCost []float64

	stats Stats

	ticker  *sim.Ticker
	sweeper *sim.Ticker
	started bool
}

// Stats counts marketplace activity.
type Stats struct {
	// Requests counts lease requests accepted into the pending state.
	Requests int `json:"requests"`
	// Rejected counts requests refused for lack of spot inventory.
	Rejected int `json:"rejected"`
	// Binds counts leases bound by their consumer.
	Binds int `json:"binds"`
	// Orphans counts leases reclaimed after a bind timeout or missed
	// heartbeats.
	Orphans int `json:"orphans"`
	// Releases counts clean lease returns.
	Releases int `json:"releases"`
}

// New builds a marketplace over the catalog on the simulator's clock.
// Call Start to arm the price ticker and orphan sweeper.
func New(s *sim.Sim, _ Config, catalog []ProviderConfig) (*Market, error) {
	if s == nil {
		return nil, errors.New("market: nil sim")
	}
	if len(catalog) == 0 {
		return nil, errors.New("market: empty provider catalog")
	}
	m := &Market{
		sim:       s,
		consumers: make(map[string]int),
	}
	for i := range catalog {
		pc := catalog[i]
		if err := pc.validate(); err != nil {
			return nil, err
		}
		pc.applyDefaults()
		p := &provider{
			cfg:     pc,
			rng:     s.Rand().Child("market/price/" + pc.Name),
			spot:    pc.SpotBaseHourly,
			anchor:  pc.SpotBaseHourly,
			ewma:    pc.SpotBaseHourly,
			free:    pc.SpotInventory,
			minSpot: pc.SpotBaseHourly,
			maxSpot: pc.SpotBaseHourly,
		}
		m.providers = append(m.providers, p)
	}
	return m, nil
}

// Start arms the price ticker and the orphan sweeper.
func (m *Market) Start() error {
	if m.started {
		return errors.New("market: already started")
	}
	m.started = true
	tk, err := m.sim.Every(tickInterval, m.tick)
	if err != nil {
		return fmt.Errorf("market: start price ticker: %w", err)
	}
	m.ticker = tk
	sw, err := m.sim.Every(heartbeatInterval, m.sweepOrphans)
	if err != nil {
		return fmt.Errorf("market: start orphan sweeper: %w", err)
	}
	m.sweeper = sw
	return nil
}

// Stop halts the tickers. Open leases stay billable until Released.
func (m *Market) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
	if m.sweeper != nil {
		m.sweeper.Stop()
	}
}

// Providers returns the catalog size.
func (m *Market) Providers() int { return len(m.providers) }

// ProviderConfig returns provider i's configuration.
func (m *Market) ProviderConfig(i int) ProviderConfig { return m.providers[i].cfg }

// tick advances every provider's spot price process by one interval,
// in catalog order. Active leases of a provider are checkpointed at
// the old price before the new one takes effect, so the cost meter is
// an exact piecewise integral across price changes.
func (m *Market) tick() {
	now := m.sim.Now()
	dt := tickInterval / 3600 // hours
	for i, p := range m.providers {
		c := &p.cfg
		// Regime shifts: when the current regime expires, either revert
		// to the base anchor or (with RegimeProb) shift to a scaled one.
		p.regimeLeft -= tickInterval
		if p.regimeLeft <= 0 {
			if p.rng.Float64() < c.RegimeProb {
				p.anchor = c.SpotBaseHourly * (regimeLow + p.rng.Float64()*(regimeHigh-regimeLow))
			} else {
				p.anchor = c.SpotBaseHourly
			}
			p.regimeLeft = regimeMeanDuration * (0.5 + p.rng.Float64())
		}
		// Mean-reverting multiplicative walk around the regime anchor.
		next := p.spot +
			reversion*(p.anchor-p.spot)*dt +
			c.Volatility*p.spot*math.Sqrt(dt)*p.rng.NormFloat64()
		// Spot never exceeds on-demand (nobody would buy) and never
		// collapses below 5% of base (providers floor their auctions).
		if next > c.OnDemandHourly {
			next = c.OnDemandHourly
		}
		if floor := 0.05 * c.SpotBaseHourly; next < floor {
			next = floor
		}
		// Settle every active lease segment at the outgoing price.
		m.checkpointProvider(i, now)
		p.spot = next
		p.ewma += ewmaAlpha * (p.spot - p.ewma)
		p.ticks++
		p.sumSpot += p.spot
		if p.spot < p.minSpot {
			p.minSpot = p.spot
		}
		if p.spot > p.maxSpot {
			p.maxSpot = p.spot
		}
		if tr := m.sim.Tracer(); tr.Enabled() {
			ev := obs.At(now, obs.KindPriceTick)
			ev.Node = i
			ev.Detail = c.Name
			ev.Value = p.spot
			tr.Emit(ev)
		}
	}
}

// checkpointProvider closes the open billing segment of every active
// lease on provider i at the current price.
func (m *Market) checkpointProvider(i int, now float64) {
	for _, l := range m.leases {
		if l.Provider != i || !l.billing() {
			continue
		}
		m.settle(l, now)
	}
}

// rate returns the lease's current $/hour.
func (m *Market) rate(l *Lease) float64 {
	p := m.providers[l.Provider]
	if l.Kind == KindSpot {
		return p.spot
	}
	return p.cfg.OnDemandHourly
}

// settle closes the lease's open billing segment: dollars accrue to
// the lease, the consumer's ledger, and the market total.
func (m *Market) settle(l *Lease, now float64) {
	d := (now - l.since) / 3600 * m.rate(l)
	l.since = now
	if d <= 0 {
		return
	}
	l.accrued += d
	m.charge(l.Consumer, d)
}

// charge records dollars against a consumer's ledger and the market
// total.
func (m *Market) charge(consumer string, dollars float64) {
	idx, ok := m.consumers[consumer]
	if !ok {
		idx = len(m.consumerName)
		m.consumers[consumer] = idx
		m.consumerName = append(m.consumerName, consumer)
		m.consumerCost = append(m.consumerCost, 0)
	}
	m.consumerCost[idx] += dollars
	m.spend += dollars
}

// Spent returns the dollars settled across all closed billing segments
// (TotalDollars adds the open ones).
func (m *Market) Spent() float64 { return m.spend }

// TotalDollars returns all settled spending plus the open segment of
// every active lease, valued at current prices.
func (m *Market) TotalDollars() float64 {
	total := m.spend
	now := m.sim.Now()
	for _, l := range m.leases {
		if l.billing() {
			total += (now - l.since) / 3600 * m.rate(l)
		}
	}
	return total
}

// CheapestOnDemandHourly returns the lowest on-demand price in the
// catalog — the rational all-on-demand buyer's rate, used as the
// cost-normalisation baseline.
func (m *Market) CheapestOnDemandHourly() float64 {
	best := m.providers[0].cfg.OnDemandHourly
	for _, p := range m.providers[1:] {
		if p.cfg.OnDemandHourly < best {
			best = p.cfg.OnDemandHourly
		}
	}
	return best
}

// ConsumerCost is one consumer's settled spending.
type ConsumerCost struct {
	Consumer string  `json:"consumer"`
	Dollars  float64 `json:"dollars"`
}

// ConsumerCosts returns settled per-consumer spending in first-charge
// order. Open lease segments are not included; call after Release or
// add TotalDollars' open remainder for live views.
func (m *Market) ConsumerCosts() []ConsumerCost {
	out := make([]ConsumerCost, len(m.consumerName))
	for i, name := range m.consumerName {
		out[i] = ConsumerCost{Consumer: name, Dollars: m.consumerCost[i]}
	}
	return out
}

// Stats returns marketplace activity counters.
//
//lint:ignore deadcode lease counters that TestTwoPhaseLifecycle and vm's TestMarketFleetRevokesAndReplaces check
func (m *Market) Stats() Stats { return m.stats }

// PriceStats is a provider's deterministic price-path summary.
type PriceStats struct {
	Provider string  `json:"provider"`
	Min      float64 `json:"min"`
	Mean     float64 `json:"mean"`
	Max      float64 `json:"max"`
	Ticks    int     `json:"ticks"`
}

// PriceStatsAll summarises every provider's spot price path so far.
func (m *Market) PriceStatsAll() []PriceStats {
	out := make([]PriceStats, len(m.providers))
	for i, p := range m.providers {
		mean := p.cfg.SpotBaseHourly
		if p.ticks > 0 {
			mean = p.sumSpot / float64(p.ticks)
		}
		out[i] = PriceStats{Provider: p.cfg.Name, Min: p.minSpot, Mean: mean, Max: p.maxSpot, Ticks: p.ticks}
	}
	return out
}

// Summary is a deterministic end-of-run digest of marketplace
// activity, carried on experiment results.
type Summary struct {
	// Stats counts lease traffic.
	Stats Stats `json:"stats"`
	// TotalDollars is all spending, settled plus open segments.
	TotalDollars float64 `json:"totalDollars"`
	// Prices summarises every provider's spot price path.
	Prices []PriceStats `json:"prices"`
	// Consumers is per-consumer settled spending in first-charge order.
	Consumers []ConsumerCost `json:"consumers"`
}

// Summary digests the marketplace state (call after the run drains).
func (m *Market) Summary() Summary {
	return Summary{
		Stats:        m.stats,
		TotalDollars: m.TotalDollars(),
		Prices:       m.PriceStatsAll(),
		Consumers:    m.ConsumerCosts(),
	}
}

// Quote is one provider's current offer, the GET /v1/market/prices
// payload.
type Quote struct {
	Provider       string  `json:"provider"`
	OnDemandHourly float64 `json:"onDemandHourly"`
	SpotHourly     float64 `json:"spotHourly"`
	SpotForecast   float64 `json:"spotForecast"`
	SpotFree       int     `json:"spotFree"`
	PRev           float64 `json:"pRev"`
}

// Quotes returns every provider's current offer in catalog order.
func (m *Market) Quotes() []Quote {
	out := make([]Quote, len(m.providers))
	for i, p := range m.providers {
		out[i] = Quote{
			Provider:       p.cfg.Name,
			OnDemandHourly: p.cfg.OnDemandHourly,
			SpotHourly:     p.spot,
			SpotForecast:   p.ewma,
			SpotFree:       p.free,
			PRev:           p.cfg.PRev,
		}
	}
	return out
}
