// The procurement optimizer: pluggable policies the fleet consults for
// every acquire and replacement decision, plus periodic rebalancing
// (migration) passes. Policies are pure functions of the market View,
// so every decision is deterministic given the seed.
package market

import "fmt"

// ProviderView is one provider's offer as seen by a policy.
type ProviderView struct {
	// Provider is the catalog index.
	Provider int
	Name     string
	// OnDemandHourly and SpotHourly are current prices; SpotForecast is
	// the EWMA-smoothed spot price (the policy-facing prediction).
	OnDemandHourly float64
	SpotHourly     float64
	SpotForecast   float64
	// SpotFree is the remaining spot inventory.
	SpotFree int
	// PRev is the per-check revocation probability.
	PRev float64
}

// View is the market snapshot policies decide against.
type View struct {
	// Now is the virtual time of the snapshot.
	Now float64
	// Providers lists every catalog entry in index order.
	Providers []ProviderView
	// SpendRate is the current $/hour commitment across open leases.
	SpendRate float64
	// Spent is the settled spending so far in dollars.
	Spent float64
}

// View captures the current market snapshot.
func (m *Market) View() View {
	v := View{
		Now:       m.sim.Now(),
		Providers: make([]ProviderView, len(m.providers)),
		SpendRate: m.SpendRate(),
		Spent:     m.spend,
	}
	for i, p := range m.providers {
		v.Providers[i] = ProviderView{
			Provider:       i,
			Name:           p.cfg.Name,
			OnDemandHourly: p.cfg.OnDemandHourly,
			SpotHourly:     p.spot,
			SpotForecast:   p.ewma,
			SpotFree:       p.free,
			PRev:           p.cfg.PRev,
		}
	}
	return v
}

// Decision is a procurement choice: which provider and purchase tier
// to acquire from.
type Decision struct {
	Provider int
	Kind     Kind
}

// Migration proposes moving one active lease to a new decision
// (drain-and-replace: the new lease binds before the old releases).
type Migration struct {
	Lease *Lease
	To    Decision
}

// Policy is a pluggable procurement strategy. Choose picks the source
// for one fresh acquisition (ok=false: nothing affordable — the
// consumer should wait and retry). Rebalance proposes migrations for
// the currently bound leases; policies without a migration story
// return nil.
type Policy interface {
	Name() string
	Choose(v View) (Decision, bool)
	Rebalance(v View, bound []*Lease) []Migration
}

// maxMigrationsPerRound bounds each rebalance pass so migration churn
// never outruns the provisioning pipeline.
const maxMigrationsPerRound = 2

// onDemandOnly buys the cheapest on-demand capacity — the paper's
// baseline procurement and the frontier anchor.
type onDemandOnly struct{}

// OnDemandOnly returns the on-demand-only policy.
func OnDemandOnly() Policy { return onDemandOnly{} }

func (onDemandOnly) Name() string { return "on-demand-only" }

func (onDemandOnly) Choose(v View) (Decision, bool) {
	best, ok := Decision{}, false
	bestRate := 0.0
	for _, p := range v.Providers {
		if !ok || p.OnDemandHourly < bestRate {
			best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindOnDemand}, p.OnDemandHourly, true
		}
	}
	return best, ok
}

func (onDemandOnly) Rebalance(View, []*Lease) []Migration { return nil }

// cheapestSpot greedily buys the currently cheapest spot capacity,
// falling back to the cheapest on-demand when spot is sold out.
type cheapestSpot struct{}

// CheapestSpot returns the cheapest-spot greedy policy.
func CheapestSpot() Policy { return cheapestSpot{} }

func (cheapestSpot) Name() string { return "cheapest-spot" }

func (cheapestSpot) Choose(v View) (Decision, bool) {
	best, ok := Decision{}, false
	bestRate := 0.0
	for _, p := range v.Providers {
		if p.SpotFree > 0 && (!ok || p.SpotHourly < bestRate) {
			best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindSpot}, p.SpotHourly, true
		}
	}
	if ok {
		return best, true
	}
	return onDemandOnly{}.Choose(v)
}

func (cheapestSpot) Rebalance(View, []*Lease) []Migration { return nil }

// forecastMigrate buys against the EWMA price forecast instead of the
// instantaneous price (so a transient spike doesn't trigger a buy-in),
// and migrates bound leases toward providers whose forecast undercuts
// their current rate by at least the margin.
type forecastMigrate struct {
	margin float64
}

// ForecastMigrate returns the EWMA price-forecast migration policy.
// margin is the minimum fractional saving that justifies a migration
// (default 0.15 when ≤ 0).
func ForecastMigrate(margin float64) Policy {
	if margin <= 0 {
		margin = 0.15
	}
	return &forecastMigrate{margin: margin}
}

func (f *forecastMigrate) Name() string { return "forecast-migrate" }

// forecastRate is the policy's effective $/hour of a decision.
func forecastRate(p ProviderView, k Kind) float64 {
	if k == KindSpot {
		return p.SpotForecast
	}
	return p.OnDemandHourly
}

func (f *forecastMigrate) Choose(v View) (Decision, bool) {
	best, ok := Decision{}, false
	bestRate := 0.0
	for _, p := range v.Providers {
		if p.SpotFree > 0 {
			if r := forecastRate(p, KindSpot); !ok || r < bestRate {
				best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindSpot}, r, true
			}
		}
		if r := forecastRate(p, KindOnDemand); !ok || r < bestRate {
			best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindOnDemand}, r, true
		}
	}
	return best, ok
}

func (f *forecastMigrate) Rebalance(v View, bound []*Lease) []Migration {
	free := make([]int, len(v.Providers))
	for i, p := range v.Providers {
		free[i] = p.SpotFree
	}
	var out []Migration
	for _, l := range bound {
		if len(out) >= maxMigrationsPerRound {
			break
		}
		cur := forecastRate(v.Providers[l.Provider], l.Kind)
		best, bestRate, ok := Decision{}, 0.0, false
		for i, p := range v.Providers {
			if free[i] > 0 && !(i == l.Provider && l.Kind == KindSpot) {
				if r := forecastRate(p, KindSpot); !ok || r < bestRate {
					best, bestRate, ok = Decision{Provider: i, Kind: KindSpot}, r, true
				}
			}
			if l.Kind != KindOnDemand || i != l.Provider {
				if r := forecastRate(p, KindOnDemand); !ok || r < bestRate {
					best, bestRate, ok = Decision{Provider: i, Kind: KindOnDemand}, r, true
				}
			}
		}
		if !ok || bestRate >= cur*(1-f.margin) {
			continue
		}
		if best.Kind == KindSpot {
			free[best.Provider]--
		}
		out = append(out, Migration{Lease: l, To: best})
	}
	return out
}

// budgetKnapsack maximises portfolio reliability subject to an hourly
// budget: every rebalance pass solves a bounded knapsack assigning the
// fleet's slots to (provider, kind) options, each with a reliability
// utility of 1−PRev (on-demand: 1) and a $/hour weight, then proposes
// migrations toward the optimal mix. Fresh acquisitions take the
// cheapest option that fits under the remaining hourly budget.
type budgetKnapsack struct {
	hourly float64
}

// BudgetKnapsack returns the budget-constrained knapsack policy.
// hourly is the fleet-wide $/hour ceiling.
func BudgetKnapsack(hourly float64) Policy { return &budgetKnapsack{hourly: hourly} }

func (b *budgetKnapsack) Name() string { return fmt.Sprintf("knapsack($%.0f/h)", b.hourly) }

func (b *budgetKnapsack) Choose(v View) (Decision, bool) {
	headroom := b.hourly - v.SpendRate
	best, ok := Decision{}, false
	bestRate := 0.0
	for _, p := range v.Providers {
		if p.SpotFree > 0 && p.SpotHourly <= headroom && (!ok || p.SpotHourly < bestRate) {
			best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindSpot}, p.SpotHourly, true
		}
	}
	if ok {
		return best, true
	}
	for _, p := range v.Providers {
		if p.OnDemandHourly <= headroom && (!ok || p.OnDemandHourly < bestRate) {
			best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindOnDemand}, p.OnDemandHourly, true
		}
	}
	// Over budget: the cheapest spot anywhere keeps the node alive at
	// minimum burn (a dark node would cost SLO, not dollars).
	if !ok {
		for _, p := range v.Providers {
			if p.SpotFree > 0 && (!ok || p.SpotHourly < bestRate) {
				best, bestRate, ok = Decision{Provider: p.Provider, Kind: KindSpot}, p.SpotHourly, true
			}
		}
	}
	return best, ok
}

// knapOption is one (provider, kind) column of the knapsack.
type knapOption struct {
	dec  Decision
	rate float64 // $/hour per slot
	util float64 // reliability per slot
	cap  int     // max slots assignable
}

// budgetUnit is the knapsack's budget discretisation in $/hour. Rates
// are rounded up, so a DP solution never exceeds the real budget.
const budgetUnit = 0.05

func (b *budgetKnapsack) Rebalance(v View, bound []*Lease) []Migration {
	n := len(bound)
	if n == 0 {
		return nil
	}
	// Build the option columns. Spot capacity counts what we already
	// hold there (a kept lease consumes no fresh inventory).
	held := make([]int, len(v.Providers))
	for _, l := range bound {
		if l.Kind == KindSpot {
			held[l.Provider]++
		}
	}
	var opts []knapOption
	for i, p := range v.Providers {
		if c := p.SpotFree + held[i]; c > 0 {
			opts = append(opts, knapOption{
				dec:  Decision{Provider: i, Kind: KindSpot},
				rate: p.SpotHourly,
				util: 1 - p.PRev,
				cap:  min(c, n),
			})
		}
		opts = append(opts, knapOption{
			dec:  Decision{Provider: i, Kind: KindOnDemand},
			rate: p.OnDemandHourly,
			util: 1,
			cap:  n,
		})
	}
	target := solveKnapsack(opts, n, b.hourly)
	if target == nil {
		return nil
	}
	// Diff the optimal mix against the current one; surplus leases (in
	// lease-ID order) migrate toward deficit options (in option order).
	current := make([]int, len(opts))
	optIdx := func(d Decision) int {
		for i, o := range opts {
			if o.dec == d {
				return i
			}
		}
		return -1
	}
	for _, l := range bound {
		if i := optIdx(Decision{Provider: l.Provider, Kind: l.Kind}); i >= 0 {
			current[i]++
		}
	}
	var out []Migration
	deficit := 0
	for _, l := range bound {
		if len(out) >= maxMigrationsPerRound {
			break
		}
		i := optIdx(Decision{Provider: l.Provider, Kind: l.Kind})
		if i >= 0 && current[i] <= target[i] {
			continue // this lease's option is not oversubscribed
		}
		for deficit < len(opts) && current[deficit] >= target[deficit] {
			deficit++
		}
		if deficit >= len(opts) {
			break
		}
		if i >= 0 {
			current[i]--
		}
		current[deficit]++
		out = append(out, Migration{Lease: l, To: opts[deficit].dec})
	}
	return out
}

// solveKnapsack assigns exactly n slots across the options, maximising
// total utility subject to Σ rate ≤ hourly, by a bounded-knapsack DP
// over discretised budget units. Ties break toward cheaper real cost,
// then toward earlier options. Returns per-option slot counts, or nil
// when even the cheapest fill of n slots exceeds the budget (the
// caller keeps the current mix rather than shedding capacity).
func solveKnapsack(opts []knapOption, n int, hourly float64) []int {
	if hourly <= 0 {
		return nil
	}
	units := int(hourly / budgetUnit)
	if units <= 0 {
		return nil
	}
	unitRate := make([]int, len(opts))
	for i, o := range opts {
		// Round up: the integral solution always fits the real budget.
		unitRate[i] = int(o.rate/budgetUnit) + 1
	}
	const unset = -1
	type cell struct {
		util float64
		cost float64
		ok   bool
	}
	// dp[k][u]: best assignment of k slots using ≤ u budget units.
	dp := make([][]cell, n+1)
	choice := make([][][]int16, len(opts)+1)
	for k := range dp {
		dp[k] = make([]cell, units+1)
	}
	for u := 0; u <= units; u++ {
		dp[0][u].ok = true
	}
	for oi, o := range opts {
		choice[oi+1] = make([][]int16, n+1)
		// Process slots downward so each option contributes at most cap
		// slots, recorded in the choice table for reconstruction.
		next := make([][]cell, n+1)
		for k := 0; k <= n; k++ {
			next[k] = make([]cell, units+1)
			choice[oi+1][k] = make([]int16, units+1)
			for u := 0; u <= units; u++ {
				best := cell{}
				bestC := int16(unset)
				for c := 0; c <= min(o.cap, k); c++ {
					spend := c * unitRate[oi]
					if spend > u {
						break
					}
					prev := dp[k-c][u-spend]
					if !prev.ok {
						continue
					}
					cand := cell{util: prev.util + float64(float64(c)*o.util), cost: prev.cost + float64(float64(c)*o.rate), ok: true}
					if bestC == unset || cand.util > best.util ||
						(cand.util >= best.util && cand.cost < best.cost) {
						best, bestC = cand, int16(c)
					}
				}
				next[k][u] = best
				choice[oi+1][k][u] = bestC
			}
		}
		dp = next
	}
	if !dp[n][units].ok {
		return nil
	}
	counts := make([]int, len(opts))
	k, u := n, units
	for oi := len(opts); oi >= 1; oi-- {
		c := int(choice[oi][k][u])
		counts[oi-1] = c
		k -= c
		u -= c * unitRate[oi-1]
	}
	return counts
}
