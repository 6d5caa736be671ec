package core

import (
	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/reconfig"
)

// DowntimeOverrider is an optional Policy extension: schemes that assume
// idealized hardware (the Oracle) override the MIG reconfiguration
// downtime.
type DowntimeOverrider interface {
	// ReconfigDowntime returns the downtime to install and whether to
	// override the engine default.
	ReconfigDowntime() (float64, bool)
}

// Lookahead is an optional Policy extension: schemes granted perfect
// knowledge of upcoming load (the Oracle) read QueueView's NextWindowBE*
// fields. The cluster derives them from the whole trace before a run,
// and only for a policy that reads them; every other policy sees zeros.
type Lookahead interface {
	// ReadsNextWindow reports whether DesiredGeometry reads the
	// next-window view.
	ReadsNextWindow() bool
}

// ProteanConfig tunes the PROTEAN policy.
type ProteanConfig struct {
	// Reconfig tunes Algorithm 2.
	Reconfig reconfig.Config
	// DisableDynamicReconfig pins the initial geometry (ablation).
	DisableDynamicReconfig bool
	// DisableReorder turns off strict-first reordering (ablation).
	DisableReorder bool
	// NaiveStrictPlacement always picks the largest fitting slice for
	// strict batches instead of minimizing the slowdown factor η
	// (ablation of the §3 placement model).
	NaiveStrictPlacement bool
	// BEFairPlacement places best-effort batches by minimal slowdown
	// factor instead of first-fit packing. This is the paper's stated
	// future-work item for the 100%-BE corner case (§6.2), where packing
	// optimizes neither P50 nor P99.
	BEFairPlacement bool
}

// beFBRPerGB approximates the bandwidth pressure of tagged best-effort
// memory, per GB.
const beFBRPerGB float64 = 0.1

// initialGeometry is the (4g, 2g, 1g) start geometry of the paper's
// demonstration (§6.1.1).
var initialGeometry = gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g)

type proteanPolicy struct {
	cfg     ProteanConfig
	dist    Distributor
	planner *reconfig.Planner
	name    string
}

var _ Policy = (*proteanPolicy)(nil)

// NewProtean returns the PROTEAN policy factory: MPS+MIG spatial
// sharing, Algorithm 1 job distribution, request reordering, and
// Algorithm 2 dynamic reconfiguration.
func NewProtean(cfg ProteanConfig) Factory {
	return func() Policy {
		return &proteanPolicy{
			cfg:     cfg,
			dist:    Distributor{BEFBRPerGB: beFBRPerGB},
			planner: reconfig.New(cfg.Reconfig),
			name:    "PROTEAN",
		}
	}
}

func (p *proteanPolicy) Name() string                  { return p.name }
func (p *proteanPolicy) Sharing() gpu.SharingMode      { return gpu.ShareMPS }
func (p *proteanPolicy) InitialGeometry() gpu.Geometry { return initialGeometry.Clone() }
func (p *proteanPolicy) ReorderRequests() bool         { return !p.cfg.DisableReorder }
func (p *proteanPolicy) SMCap(bool) float64            { return 0 }

func (p *proteanPolicy) Place(g *gpu.GPU, m *model.Model, strict bool) (*gpu.Slice, error) {
	if strict {
		if p.cfg.NaiveStrictPlacement {
			for _, sl := range g.Slices() {
				if fits(sl, m) {
					return sl, nil
				}
			}
			return nil, ErrNoSlice
		}
		tags := TagSlices(g, pendingBEMem(g))
		return p.dist.ChooseStrictSlice(g, m, tags)
	}
	if p.cfg.BEFairPlacement {
		return p.dist.ChooseStrictSlice(g, m, nil)
	}
	return p.dist.ChooseBestEffortSlice(g, m)
}

func (p *proteanPolicy) DesiredGeometry(g *gpu.GPU, view QueueView) (gpu.Geometry, bool) {
	p.planner.ObserveBEBatches(view.BEBatchesLastWindow)
	if p.cfg.DisableDynamicReconfig {
		return g.Geometry(), false
	}
	d := p.planner.Plan(reconfig.PlanInput{
		Current:       g.Geometry(),
		BEMemPerBatch: view.BEMemPerBatch,
		PredBEBatches: -1,
		WindowSeconds: view.WindowSeconds,
		BESolo:        view.BESolo,
	})
	return d.Desired, d.Reconfigure
}

type oraclePolicy struct {
	proteanPolicy
}

var (
	_ DowntimeOverrider = (*oraclePolicy)(nil)
	_ Lookahead         = (*oraclePolicy)(nil)
)

// NewOracle returns the Oracle: PROTEAN's policies with perfect
// knowledge of upcoming BE load, no reconfiguration hysteresis, and
// zero reconfiguration downtime (offline sweeps).
func NewOracle() Factory {
	return func() Policy {
		inner := NewProtean(ProteanConfig{Reconfig: reconfig.Config{WaitLimit: -1}})()
		pp, ok := inner.(*proteanPolicy)
		if !ok {
			return inner
		}
		pp.name = "Oracle"
		return &oraclePolicy{proteanPolicy: *pp}
	}
}

func (o *oraclePolicy) ReconfigDowntime() (float64, bool) { return 0, true }

func (o *oraclePolicy) ReadsNextWindow() bool { return true }

func (o *oraclePolicy) DesiredGeometry(g *gpu.GPU, view QueueView) (gpu.Geometry, bool) {
	o.planner.ObserveBEBatches(view.BEBatchesLastWindow)
	// Perfect prediction: plan for the true upcoming window.
	d := o.planner.Plan(reconfig.PlanInput{
		Current:       g.Geometry(),
		BEMemPerBatch: view.NextWindowBEMemPerBatch,
		PredBEBatches: float64(view.NextWindowBEBatches),
		WindowSeconds: view.WindowSeconds,
		BESolo:        view.BESolo,
	})
	return d.Desired, d.Reconfigure
}
