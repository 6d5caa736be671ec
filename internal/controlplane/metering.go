// Usage metering and billing: per-second rollups, GPU-slice-second
// accounting by MIG profile, slot-weighted billing, the Prometheus
// families read from those accounts at scrape time, and the
// deterministic rollup rendering the replay test byte-compares.
package controlplane

import (
	"fmt"

	"protean/internal/gpu"
	"protean/internal/obs"
)

// Billing rates. GPUSecondRate approximates an on-demand A100 at
// $3/hour; a slice is billed at its slot fraction of the full GPU.
// RequestRate is the flat per-request invocation fee.
const (
	GPUSecondRate = 3.0 / 3600
	RequestRate   = 0.00002
)

// sliceSecondRate returns the billing rate for one second on the named
// profile: Slots/TotalSlots of a full GPU second.
func sliceSecondRate(profile string) float64 {
	p, ok := gpu.ProfileByName(profile)
	if !ok {
		return GPUSecondRate
	}
	return GPUSecondRate * float64(p.Slots) / float64(gpu.TotalSlots)
}

// Window is one second of a tenant's usage.
type Window struct {
	// Second is the virtual second the window covers ([Second, Second+1)).
	Second int `json:"second"`
	// Completed counts requests finished in the window.
	Completed int `json:"completed"`
	// Dropped counts requests lost in the window.
	Dropped int `json:"dropped,omitempty"`
	// Violations counts completions over the tenant's latency target.
	Violations int `json:"violations,omitempty"`
	// SliceSeconds is GPU slice occupancy accrued in the window.
	SliceSeconds float64 `json:"sliceSeconds"`
}

// Usage is a tenant's cumulative account.
type Usage struct {
	Tenant    string `json:"tenant"`
	Class     string `json:"class"`
	Model     string `json:"model"`
	Strict    bool   `json:"strict"`
	Suspended bool   `json:"suspended"`
	// TargetMillis is the tenant's latency target.
	TargetMillis float64 `json:"targetMillis"`
	// VirtualTime is the plane clock when the snapshot was taken.
	VirtualTime float64 `json:"virtualTime"`

	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Dropped   int `json:"dropped"`
	// SLOViolations counts completions over the latency target.
	SLOViolations int `json:"sloViolations"`
	Suspends      int `json:"suspends"`
	Resumes       int `json:"resumes"`

	// SLOAttainment is the fraction of completions within target
	// (1 when nothing completed yet).
	SLOAttainment float64 `json:"sloAttainment"`
	P50Millis     float64 `json:"p50Millis"`
	P99Millis     float64 `json:"p99Millis"`

	// SliceSecondsByProfile breaks GPU slice occupancy down by MIG
	// profile — the billing meter.
	SliceSecondsByProfile map[string]float64 `json:"sliceSecondsByProfile"`
	// GPUSeconds is slot-weighted occupancy (1 s on "1g" = 1/7 GPU s).
	GPUSeconds float64 `json:"gpuSeconds"`
	// CostDollars = Σ sliceSeconds×profileRate + completed×requestRate.
	CostDollars float64 `json:"costDollars"`

	// RecentWindows holds up to the last 60 per-second windows.
	RecentWindows []Window `json:"recentWindows,omitempty"`
}

// Usage returns a tenant's current account. In live (wall-clock) mode
// the plane syncs to the present first, so the numbers include all work
// finished by now.
func (p *Plane) Usage(tenantID string) (Usage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[tenantID]
	if !ok {
		return Usage{}, fmt.Errorf("controlplane: unknown tenant %q", tenantID)
	}
	if !p.drained {
		if err := p.advanceLocked(p.wallVT()); err != nil {
			return Usage{}, err
		}
	}
	return p.usageLocked(t), nil
}

// UsageAll returns every tenant's account in registration order.
func (p *Plane) UsageAll() ([]Usage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.drained {
		if err := p.advanceLocked(p.wallVT()); err != nil {
			return nil, err
		}
	}
	out := make([]Usage, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.usageLocked(p.tenants[id]))
	}
	return out, nil
}

func (p *Plane) usageLocked(t *tenant) Usage {
	u := Usage{
		Tenant:                t.cfg.ID,
		Class:                 t.class.Name,
		Model:                 t.model.Name(),
		Strict:                t.class.Strict,
		Suspended:             t.suspended,
		TargetMillis:          1000 * t.target,
		VirtualTime:           p.sim.Now(),
		Admitted:              t.admitted,
		Shed:                  t.shed,
		Rejected:              t.rejected,
		Completed:             t.completed,
		Dropped:               t.dropped,
		SLOViolations:         t.violations,
		Suspends:              t.suspends,
		Resumes:               t.resumes,
		SLOAttainment:         1,
		SliceSecondsByProfile: make(map[string]float64, len(t.slicePros)),
	}
	if t.completed > 0 {
		u.SLOAttainment = 1 - float64(t.violations)/float64(t.completed)
	}
	if t.recorder.Len() > 0 {
		u.P50Millis = 1000 * t.recorder.Percentile(50)
		u.P99Millis = 1000 * t.recorder.Percentile(99)
	}
	cost := float64(t.completed) * RequestRate
	// Iterate profiles in first-seen order (never map order) so the
	// billing sum is reproducible bit-for-bit.
	for _, prof := range t.slicePros {
		s := t.sliceSecs[prof]
		u.SliceSecondsByProfile[prof] = s
		pr, ok := gpu.ProfileByName(prof)
		if ok {
			u.GPUSeconds += s * float64(pr.Slots) / float64(gpu.TotalSlots)
		} else {
			u.GPUSeconds += s
		}
		cost += s * sliceSecondRate(prof)
	}
	u.CostDollars = cost
	n := t.windowCount
	lo := 0
	if n > 60 {
		lo = n - 60
	}
	u.RecentWindows = append(u.RecentWindows, t.windows[lo:n]...)
	return u
}

// register publishes the plane's Prometheus series on reg: the tenant
// and pool families, and the market families on a market plane. One
// collector reads them all from the plane's own accounts under one
// p.mu acquisition per scrape, so /metrics keeps no second copy of
// them, and a plane that registers later replaces all of this one's
// series (a market-off plane leaves no market_* family behind).
func (p *Plane) register(reg *obs.Registry) {
	reg.Collect("controlplane", func(c *obs.Collection) {
		requests := c.Counter("proteand_tenant_requests_total", "Ingest attempts by admission decision.", "tenant", "decision")
		completed := c.Counter("proteand_tenant_completed_total", "Requests completed per tenant.", "tenant")
		dropped := c.Counter("proteand_tenant_dropped_total", "Admitted requests lost in the cluster per tenant.", "tenant")
		violations := c.Counter("proteand_tenant_slo_violations_total", "Completions over the tenant latency target.", "tenant")
		sliceSecs := c.Counter("proteand_tenant_slice_seconds_total", "GPU slice occupancy by MIG profile per tenant.", "tenant", "profile")
		suspended := c.Gauge("proteand_tenant_suspended", "1 while the tenant is scaled to zero.", "tenant")
		// The pool counters are cumulative but read as absolute
		// snapshots, so they are gauges.
		poolHits := c.Gauge("proteand_pool_hits", "Cumulative freelist reuses across the cluster's object pools.")
		poolMisses := c.Gauge("proteand_pool_misses", "Cumulative fresh allocations across the cluster's object pools.")
		// nonzero leaves a series out until its count first moves.
		nonzero := func(emit obs.Emit, n int, labels ...string) {
			if n > 0 {
				emit(float64(n), labels...)
			}
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, id := range p.order {
			t := p.tenants[id]
			requests(float64(t.admitted), id, OutcomeAdmit)
			nonzero(requests, t.shed, id, OutcomeShed)
			nonzero(requests, t.rejected, id, OutcomeReject)
			completed(float64(t.completed), id)
			nonzero(dropped, t.dropped, id)
			nonzero(violations, t.violations, id)
			for _, prof := range t.slicePros {
				sliceSecs(t.sliceSecs[prof], id, prof)
			}
			if t.suspended {
				suspended(1, id)
			} else {
				suspended(0, id)
			}
		}
		pool := p.cluster.PoolStats()
		poolHits(float64(pool.Hits))
		poolMisses(float64(pool.Misses))
		if p.market == nil {
			return
		}
		price := c.Gauge("market_spot_price_hourly", "Current spot price per provider in $/hour.", "provider")
		for _, q := range p.market.Quotes() {
			price(q.SpotHourly, q.Provider)
		}
		c.Gauge("market_spend_dollars", "Total dollars settled across all lease billing segments.")(p.market.Spent())
		c.Gauge("market_leases_live", "Leases currently pending, ready or bound.")(float64(p.market.LiveLeases()))
	})
}
