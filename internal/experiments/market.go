package experiments

import (
	"fmt"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/vm"
)

// The market cost-frontier sweep: procurement policies × spot-price
// volatility over the multi-provider marketplace, charting SLO
// attainment against dollars per thousand requests. The policies the
// paper's §4.5 cost-aware module generalises into should strictly
// dominate the all-on-demand buyer on $/1k while holding ≥95% of its
// SLO attainment.
const (
	// MarketDuration is the full-mode trace length; revocation notices,
	// regime shifts and migration passes need minutes to play out.
	MarketDuration = 600
	// MarketQuickDuration is the CI smoke horizon.
	MarketQuickDuration = 120
	// MarketKnapsackBudgetPerNode is the knapsack policy's hourly
	// budget per node slot — roughly 45% of the cheapest on-demand
	// rate, so an all-on-demand portfolio never fits and the DP must
	// trade reliability against spot exposure.
	MarketKnapsackBudgetPerNode = 13.5
)

// marketCatalog is the experiment's provider catalog: the three Table 3
// rows with per-provider revocation profiles, plus a cheap, volatile
// neocloud whose storms spill onto nobody (everyone else couples
// lightly to the hyperscalers).
func marketCatalog(volScale float64) []market.ProviderConfig {
	rows := vm.Providers()
	return []market.ProviderConfig{
		{
			Name: rows[0].Provider, SpotInventory: 6,
			OnDemandHourly: rows[0].OnDemandHourly, SpotBaseHourly: rows[0].SpotHourly,
			Volatility: 0.6 * volScale, RegimeProb: 0.25,
			PRev: 0.25, StormCoupling: 0.25,
		},
		{
			Name: rows[1].Provider, SpotInventory: 6,
			OnDemandHourly: rows[1].OnDemandHourly, SpotBaseHourly: rows[1].SpotHourly,
			Volatility: 0.4 * volScale, RegimeProb: 0.15,
			PRev: 0.15, StormCoupling: 0.25,
		},
		{
			Name: rows[2].Provider, SpotInventory: 6,
			OnDemandHourly: rows[2].OnDemandHourly, SpotBaseHourly: rows[2].SpotHourly,
			Volatility: 0.6 * volScale, RegimeProb: 0.25,
			PRev: 0.3, StormCoupling: 0.25,
		},
		{
			Name: "NeoCloud", SpotInventory: 3,
			OnDemandHourly: 24.0, SpotBaseHourly: 5.5,
			Volatility: 1.2 * volScale, RegimeProb: 0.4,
			PRev: 0.5, StormCoupling: 0,
		},
	}
}

// marketVolatilities is the price-volatility sweep: a calm market and
// one with violent spot repricing.
func marketVolatilities() []struct {
	Name  string
	Scale float64
} {
	return []struct {
		Name  string
		Scale float64
	}{
		{"calm", 0.1},
		{"volatile", 0.5},
	}
}

// marketPolicies is the procurement-policy sweep, the all-on-demand
// frontier anchor first.
func marketPolicies(nodes int) []struct {
	Name string
	Mk   func() market.Policy
} {
	budget := MarketKnapsackBudgetPerNode * float64(nodes)
	return []struct {
		Name string
		Mk   func() market.Policy
	}{
		{"on-demand-only", market.OnDemandOnly},
		{"cheapest-spot", market.CheapestSpot},
		{"forecast-migrate", func() market.Policy { return market.ForecastMigrate(0.15) }},
		{"budget-knapsack", func() market.Policy { return market.BudgetKnapsack(budget) }},
	}
}

// MarketSweep is the `-run market` experiment: the procurement cost
// frontier across policies and price volatility.
func MarketSweep(p Params) (*Report, error) {
	p = p.withDefaults()
	if p.Quick {
		p.Duration = MarketQuickDuration
	} else if p.Duration < MarketDuration {
		p.Duration = MarketDuration
	}
	strict := model.MustByName("ResNet 50")
	vols := marketVolatilities()
	pols := marketPolicies(p.Nodes)

	// Every cell replays one Wiki trace: only procurement differs.
	rate := wikiRate(p.Duration)
	var scs []Scenario
	for _, vol := range vols {
		for _, pol := range pols {
			scs = append(scs, Scenario{
				Label:  fmt.Sprintf("market %s/%s", vol.Name, pol.Name),
				Strict: strict,
				Rate:   rate,
				Policy: core.NewProtean(core.ProteanConfig{}),
				VM:     &vm.Config{CheckInterval: 45},
				Market: &MarketSpec{
					Catalog: marketCatalog(vol.Scale),
					Policy:  pol.Mk,
				},
			})
		}
	}
	shareTrace(scs)
	type run struct {
		market              *market.Summary
		completed           int
		slo                 float64
		notices, migrations int
	}
	runs, err := RunScenarios(p, scs, func(res *cluster.Result) run {
		return run{
			market:     res.Market,
			completed:  res.Availability.Completed,
			slo:        res.Recorder.SLOCompliance(),
			notices:    res.EvictionNotices,
			migrations: res.Migrations,
		}
	})
	if err != nil {
		return nil, err
	}

	frontier := &Table{
		Title: "Market: procurement cost frontier (policies × spot volatility)",
		Headers: []string{
			"volatility", "policy", "$/1k req", "dollars", "SLO compliance",
			"notices", "binds", "migrations",
		},
	}
	k := 0
	for _, vol := range vols {
		var odCost1k, odSLO float64
		dominating := 0
		for _, pol := range pols {
			r := runs[k]
			k++
			if r.market == nil {
				return nil, fmt.Errorf("experiments: %s/%s ran without a market", vol.Name, pol.Name)
			}
			cost1k := metrics.DollarsPer1k(r.market.TotalDollars, r.completed)
			if pol.Name == "on-demand-only" {
				odCost1k, odSLO = cost1k, r.slo
			} else if cost1k < odCost1k && r.slo >= 0.95*odSLO {
				dominating++
			}
			frontier.Rows = append(frontier.Rows, []Cell{
				text(vol.Name), text(pol.Name),
				dollars(cost1k, 4),
				dollars(r.market.TotalDollars, 2),
				pct(r.slo),
				count(r.notices),
				count(r.market.Stats.Binds),
				count(r.migrations),
			})
		}
		frontier.Notes = append(frontier.Notes, fmt.Sprintf(
			"%s: %d policies dominate on-demand-only (cheaper per 1k requests at ≥95%% of its %s SLO attainment)",
			vol.Name, dominating, pct(odSLO).String()))
	}

	prices := &Table{
		Title:   "Market: spot price paths (min/mean/max $/hour over the run)",
		Headers: []string{"volatility", "provider", "min", "mean", "max", "ticks"},
		Notes: []string{
			"price processes are lease-independent: within a volatility row the path is identical for every policy",
		},
	}
	for vi, vol := range vols {
		// The first policy's run stands in for the whole volatility row.
		for _, ps := range runs[vi*len(pols)].market.Prices {
			prices.Rows = append(prices.Rows, []Cell{
				text(vol.Name), text(ps.Provider),
				dollars(ps.Min, 4),
				dollars(ps.Mean, 4),
				dollars(ps.Max, 4),
				count(ps.Ticks),
			})
		}
	}

	return &Report{ID: "market", Tables: []*Table{frontier, prices}}, nil
}
