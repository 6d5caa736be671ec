package market

import (
	"math"
	"testing"

	"protean/internal/obs"
	"protean/internal/sim"
)

// testCatalog is a small three-provider catalog with distinct price
// processes and revocation profiles.
func testCatalog() []ProviderConfig {
	return []ProviderConfig{
		{Name: "alpha", SpotInventory: 4, OnDemandHourly: 32, SpotBaseHourly: 10, Volatility: 0.4, RegimeProb: 0.2, PRev: 0.2},
		{Name: "beta", SpotInventory: 4, OnDemandHourly: 30, SpotBaseHourly: 12, Volatility: 0.2, RegimeProb: 0.1, PRev: 0.1},
		{Name: "gamma", SpotInventory: 2, OnDemandHourly: 28, SpotBaseHourly: 6, Volatility: 0.8, RegimeProb: 0.3, PRev: 0.5, StormCoupling: 0.5},
	}
}

func newTestMarket(t *testing.T, s *sim.Sim, cfg Config) *Market {
	t.Helper()
	m, err := New(s, cfg, testCatalog())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return m
}

// pricePath runs a fresh market for dur seconds and returns every
// provider's final spot price.
func pricePath(t *testing.T, seed int64, dur float64) []float64 {
	t.Helper()
	s := sim.New(seed)
	m := newTestMarket(t, s, Config{})
	if err := s.RunUntil(dur); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	out := make([]float64, m.Providers())
	for i := range out {
		out[i] = m.providers[i].spot
	}
	return out
}

func TestPricePathsAreSeedDeterministic(t *testing.T) {
	a := pricePath(t, 7, 1800)
	b := pricePath(t, 7, 1800)
	for i := range a {
		if a[i] != b[i] { // bitwise: determinism check
			t.Errorf("provider %d: price %v != %v across identical runs", i, a[i], b[i])
		}
	}
	c := pricePath(t, 8, 1800)
	same := 0
	for i := range a {
		if a[i] == c[i] { // bitwise on purpose
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical price paths")
	}
}

func TestMarketConstructionConsumesNoParentRandomness(t *testing.T) {
	s1, s2 := sim.New(3), sim.New(3)
	if _, err := New(s2, Config{}, testCatalog()); err != nil {
		t.Fatalf("New: %v", err)
	}
	if a, b := s1.Rand().Intn(math.MaxInt), s2.Rand().Intn(math.MaxInt); a != b {
		t.Errorf("building a market consumed parent randomness: %d != %d", a, b)
	}
}

func TestPricesStayInBounds(t *testing.T) {
	s := sim.New(11)
	m := newTestMarket(t, s, Config{})
	check := func() {
		for i, p := range m.providers {
			lo, hi := 0.05*p.cfg.SpotBaseHourly, p.cfg.OnDemandHourly
			if p.spot < lo-1e-12 || p.spot > hi+1e-12 {
				t.Fatalf("provider %d spot %v outside [%v, %v]", i, p.spot, lo, hi)
			}
		}
	}
	for i := 0; i < 200; i++ {
		if err := s.RunUntil(float64(i+1) * 15); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		check()
	}
}

// TestLeaseBillingIsExactPiecewiseIntegral pins the checkpointing: a
// lease spanning many price ticks must cost exactly the piecewise
// integral of the traced price path over its billing window, each
// segment valued at the price in force when it opened.
func TestLeaseBillingIsExactPiecewiseIntegral(t *testing.T) {
	s := sim.New(5)
	col := obs.NewCollector("market")
	s.SetTracer(col)
	m := newTestMarket(t, s, Config{})

	var l *Lease
	var readyAt float64
	// Acquire at t=30 (so provisioning is asynchronous), bind on ready.
	s.MustAfter(30, func() {
		var err error
		l, err = m.Request("tenant/a", 0, KindSpot, func(lz *Lease) {
			if err := m.Bind(lz); err != nil {
				t.Errorf("Bind: %v", err)
			}
			readyAt = s.Now()
		})
		if err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	const end = 655.0
	if err := s.RunUntil(end); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if l == nil || l.State != StateBound {
		t.Fatalf("lease not bound at t=%v", s.Now())
	}
	m.Release(l)

	// Reconstruct the price path of provider 0 from the trace: the
	// price in force over [tick_k, tick_k+1) is the value carried on
	// tick_k's event; before the first traced tick it is the base.
	price := m.providers[0].cfg.SpotBaseHourly
	at := readyAt
	want := 0.0
	for _, ev := range col.Trace().Events {
		if ev.Kind != obs.KindPriceTick || ev.Node != 0 {
			continue
		}
		if ev.T <= readyAt {
			price = ev.Value
			continue
		}
		if ev.T >= end {
			break
		}
		want += (ev.T - at) / 3600 * price
		at, price = ev.T, ev.Value
	}
	want += (end - at) / 3600 * price
	if d := math.Abs(l.accrued - want); d > 1e-9 {
		t.Errorf("lease dollars = %.12f, want %.12f (Δ %.3g)", l.accrued, want, d)
	}
	if tot := m.TotalDollars(); math.Abs(tot-want) > 1e-9 {
		t.Errorf("TotalDollars = %.12f, want %.12f", tot, want)
	}
}

func TestConsumerLedger(t *testing.T) {
	s := sim.New(4)
	m := newTestMarket(t, s, Config{})
	la, err := m.Request("tenant/a", 0, KindOnDemand, func(l *Lease) { _ = m.Bind(l) })
	if err != nil {
		t.Fatalf("Request a: %v", err)
	}
	lb, err := m.Request("tenant/b", 1, KindOnDemand, func(l *Lease) { _ = m.Bind(l) })
	if err != nil {
		t.Fatalf("Request b: %v", err)
	}
	if err := s.RunUntil(1800); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	m.Release(la)
	m.Release(lb)
	costs := m.ConsumerCosts()
	if len(costs) != 2 {
		t.Fatalf("ConsumerCosts len = %d, want 2", len(costs))
	}
	wantA := 0.5 * 32.0 // half an hour of alpha on-demand
	wantB := 0.5 * 30.0
	if math.Abs(costs[0].Dollars-wantA) > 1e-9 || costs[0].Consumer != "tenant/a" {
		t.Errorf("consumer[0] = %+v, want tenant/a @ %v", costs[0], wantA)
	}
	if math.Abs(costs[1].Dollars-wantB) > 1e-9 || costs[1].Consumer != "tenant/b" {
		t.Errorf("consumer[1] = %+v, want tenant/b @ %v", costs[1], wantB)
	}
	total := m.TotalDollars()
	if math.Abs(total-(wantA+wantB)) > 1e-9 {
		t.Errorf("TotalDollars = %v, want %v", total, wantA+wantB)
	}
}

func TestQuotesAndPriceStats(t *testing.T) {
	s := sim.New(6)
	m := newTestMarket(t, s, Config{})
	if err := s.RunUntil(600); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	qs := m.Quotes()
	if len(qs) != 3 || qs[0].Provider != "alpha" || qs[2].Provider != "gamma" {
		t.Fatalf("Quotes = %+v", qs)
	}
	for _, q := range qs {
		if q.SpotHourly <= 0 || q.OnDemandHourly <= 0 || q.SpotForecast <= 0 {
			t.Errorf("quote %s has non-positive prices: %+v", q.Provider, q)
		}
	}
	for _, ps := range m.PriceStatsAll() {
		if ps.Ticks != 40 {
			t.Errorf("%s ticks = %d, want 40", ps.Provider, ps.Ticks)
		}
		if ps.Min > ps.Mean || ps.Mean > ps.Max {
			t.Errorf("%s price stats out of order: %+v", ps.Provider, ps)
		}
	}
}

func TestCatalogValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := New(s, Config{}, nil); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := New(s, Config{}, []ProviderConfig{{OnDemandHourly: 10}}); err == nil {
		t.Error("unnamed provider accepted")
	}
	if _, err := New(s, Config{}, []ProviderConfig{{Name: "x"}}); err == nil {
		t.Error("zero on-demand price accepted")
	}
	if _, err := New(s, Config{}, []ProviderConfig{{Name: "x", OnDemandHourly: 10, PRev: 1.5}}); err == nil {
		t.Error("P_rev > 1 accepted")
	}
}
