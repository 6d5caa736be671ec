// Package reconfig implements PROTEAN's GPU Reconfigurator (Algorithm 2):
// every monitor window it predicts the upcoming best-effort memory
// footprint with an EWMA, picks the smallest slice set that can hold it
// ([1g,2g] or [3g]), checks the T_low/T_high occupancy thresholds, falls
// back to the (4g, 3g) geometry in corner cases, and applies a
// wait-counter hysteresis before actually changing the geometry.
package reconfig

import (
	"fmt"

	"protean/internal/ewma"
	"protean/internal/gpu"
)

// Config tunes the planner.
type Config struct {
	// Alpha is the EWMA smoothing factor (default 0.35).
	Alpha float64
	// WaitLimit is the number of consecutive mismatching windows before
	// a reconfiguration is issued (3 in §4.4). Zero keeps the default;
	// negative disables hysteresis (the Oracle).
	WaitLimit int
}

const (
	// tLow and tHigh are the BE occupancy thresholds of Algorithm 2
	// steps d/e, as fractions of the chosen small-slice-set memory.
	tLow, tHigh float64 = 0.1, 0.9
	// rhoHigh is the maximum BE time-occupancy (service demand over
	// capacity) allowed on a small slice set before escalating —
	// Algorithm 2's T_high expressed over slowdown rather than memory.
	rhoHigh float64 = 0.75
)

func (c *Config) applyDefaults() {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.35
	}
	if c.WaitLimit == 0 {
		c.WaitLimit = 3
	}
	if c.WaitLimit < 0 {
		c.WaitLimit = 1
	}
}

// Planner decides geometry changes for one GPU.
type Planner struct {
	cfg     Config
	pred    *ewma.EWMA
	waitCtr int
}

// sliceSet is one of Algorithm 2's small slice sets with the
// per-window constants Plan reads: its total and largest slice memory
// and the geometry it plans (the set plus 4g).
type sliceSet struct {
	profiles     []gpu.Profile
	memGB        float64
	largestMemGB float64
	geometry     gpu.Geometry
}

func newSliceSet(profiles ...gpu.Profile) sliceSet {
	set := sliceSet{
		profiles: profiles,
		geometry: gpu.MustGeometry(append([]gpu.Profile{gpu.Profile4g}, profiles...)...),
	}
	for _, prof := range profiles {
		set.memGB += prof.MemGB
		if prof.MemGB > set.largestMemGB {
			set.largestMemGB = prof.MemGB
		}
	}
	return set
}

// Every geometry a planner can plan, built and validated once for the
// process and shared read-only by every planner.
var (
	// smallSliceSets is Algorithm 2's small_slice_set, in preference
	// order.
	smallSliceSets = []sliceSet{
		newSliceSet(gpu.Profile1g, gpu.Profile2g),
		newSliceSet(gpu.Profile3g),
	}
	// fallbackGeometry is the (4g, 3g) corner-case geometry of
	// Algorithm 2 step f — per the paper, the most effective when
	// thresholds are violated or BE work cannot fit the small slice
	// sets.
	fallbackGeometry = gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g)
)

// New returns a planner.
func New(cfg Config) *Planner {
	cfg.applyDefaults()
	return &Planner{cfg: cfg, pred: ewma.MustNew(cfg.Alpha)}
}

// ObserveBEBatches records how many best-effort batches arrived in the
// last monitor window (feeding predict_num_BE).
func (p *Planner) ObserveBEBatches(n int) {
	p.pred.Observe(float64(n))
}

// Decision is the outcome of one planning window.
type Decision struct {
	// Desired is the geometry Algorithm 2 computed for the predicted
	// load.
	Desired gpu.Geometry
	// Reconfigure reports whether the hysteresis has been satisfied and
	// the GPU should change now.
	Reconfigure bool
	// WaitCtr is the current mismatch streak (diagnostics).
	WaitCtr int
}

// PlanInput carries one window's Algorithm 2 inputs.
type PlanInput struct {
	// Current is the GPU's installed geometry.
	Current gpu.Geometry
	// BEMemPerBatch is the predicted BE model's per-batch memory
	// footprint on a partial slice.
	BEMemPerBatch float64
	// PredBEBatches overrides the EWMA forecast when non-negative (the
	// Oracle passes the true upcoming count; -1 uses the EWMA).
	PredBEBatches float64
	// WindowSeconds is the monitor window length, used with BESolo for
	// the time-occupancy check (0 skips it).
	WindowSeconds float64
	// BESolo returns the BE model's solo batch time on a profile (nil
	// skips the time-occupancy check).
	BESolo func(gpu.Profile) float64
}

// Plan runs Algorithm 2 for one window. Decision.Desired is one of the
// planner's fixed geometries, shared read-only.
func (p *Planner) Plan(in PlanInput) Decision {
	desired := p.choose(in)
	d := Decision{Desired: desired}
	if desired.Equal(in.Current) {
		p.waitCtr = 0
		return d
	}
	p.waitCtr++
	if p.waitCtr >= p.cfg.WaitLimit {
		p.waitCtr = 0
		d.Reconfigure, d.WaitCtr = true, p.cfg.WaitLimit
		return d
	}
	d.WaitCtr = p.waitCtr
	return d
}

// choose returns the geometry Algorithm 2 computes for the window's
// predicted load: the first viable small slice set plus 4g, or the
// (4g, 3g) fallback.
func (p *Planner) choose(in PlanInput) gpu.Geometry {
	predBEBatches := in.PredBEBatches
	if predBEBatches < 0 {
		predBEBatches = p.pred.PredictOr(0)
	}
	predBEMem := predBEBatches * in.BEMemPerBatch

	for _, set := range smallSliceSets {
		sum := set.memGB
		if sum < predBEMem {
			continue
		}
		// A set is only viable if a single BE batch fits its largest
		// slice — otherwise every BE batch would spill onto the strict
		// slices (the DPN 92 scenario of Figure 7).
		if in.BEMemPerBatch > set.largestMemGB {
			continue
		}
		// Time occupancy: the predicted BE service demand must fit the
		// set's capacity with headroom, or resource deficiency on the
		// small slices inflates BE latency without bound (Algorithm 2's
		// T_high expressed over slowdown).
		if in.BESolo != nil && in.WindowSeconds > 0 && predBEBatches > 0 {
			rate := predBEBatches / in.WindowSeconds
			capacity := 0.0
			for _, prof := range set.profiles {
				if solo := in.BESolo(prof); solo > 0 {
					capacity += 1 / solo
				}
			}
			if capacity <= 0 || rate/capacity > rhoHigh {
				continue
			}
		}
		occupancy := 0.0
		if sum > 0 {
			occupancy = predBEMem / sum
		}
		if occupancy > tHigh {
			continue // too tight: try the next (larger) slice set
		}
		if occupancy < tLow {
			break // very few BE requests: consolidation on (4g, 3g) wins
		}
		return set.geometry
	}
	return fallbackGeometry
}

// Budget limits how many GPUs may reconfigure simultaneously
// (~30% per §4.4). Acquisition happens in root-simulation context (the
// monitor tick) and completed reconfigurations release their slot from
// node-lane context; both run on the simulation's one goroutine.
type Budget struct {
	total    int
	maxFrac  float64
	inFlight int
}

// NewBudget returns a budget over total GPUs with the given maximum
// simultaneous fraction (default 0.3 when frac <= 0).
func NewBudget(total int, frac float64) (*Budget, error) {
	if total <= 0 {
		return nil, fmt.Errorf("reconfig: %d GPUs, want > 0", total)
	}
	if frac <= 0 {
		frac = 0.3
	}
	if frac > 1 {
		frac = 1
	}
	return &Budget{total: total, maxFrac: frac}, nil
}

// TryAcquire reserves a reconfiguration slot, returning false when the
// simultaneous-reconfiguration cap is reached.
func (b *Budget) TryAcquire() bool {
	limit := int(b.maxFrac * float64(b.total))
	if limit < 1 {
		limit = 1
	}
	if b.inFlight >= limit {
		return false
	}
	b.inFlight++
	return true
}

// Release returns a slot after a reconfiguration completes. A release
// with no slot held is a no-op.
func (b *Budget) Release() {
	if b.inFlight > 0 {
		b.inFlight--
	}
}
