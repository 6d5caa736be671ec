// Package autoscale implements PROTEAN's container autoscaling (§4.2):
// reactive scale-up spawns one GPU-accelerated container per request
// batch (paying a cold start when no warm container exists), and delayed
// termination keeps surplus warm containers alive for an extended
// keep-alive period (~10 minutes) before reclaiming them, cutting cold
// starts by up to 98% versus immediate scale-down.
package autoscale

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"protean/internal/obs"
	"protean/internal/sim"
)

// coldStart is the container boot latency in seconds.
const coldStart float64 = 4

// Config tunes the scaler.
type Config struct {
	// KeepAlive is the delayed-termination window in seconds
	// (default 600 s).
	KeepAlive float64
	// Immediate terminates containers as soon as their batch finishes
	// (the scale-down-immediately baseline of the §4.2 comparison).
	Immediate bool
}

func (c *Config) applyDefaults() {
	if c.KeepAlive <= 0 {
		c.KeepAlive = 600
	}
}

// pool tracks containers for one model on one node.
type pool struct {
	name string
	// idleSince holds, per idle warm container, the time it went idle
	// (ascending).
	idleSince []float64
	busy      int
}

// Scaler manages per-model container pools for one worker node.
type Scaler struct {
	// Node labels the scaler's worker in traced autoscale events (set by
	// the cluster; standalone scalers report node 0).
	Node int

	cfg Config
	sim *sim.Sim

	// pools holds one pool per model in ascending name order: lookups
	// binary-search it and Sweep walks it without sorting.
	pools      []*pool
	coldStarts int
	spawned    int
}

// NewScaler returns a scaler bound to the simulation's virtual clock.
// In the cluster s is the node's lane: the scaler reads Now and emits
// trace events but schedules no timers of its own (keep-alive expiry
// is evaluated lazily on access), so it inherits the lane's timer
// affinity for free.
func NewScaler(s *sim.Sim, cfg Config) (*Scaler, error) {
	if s == nil {
		return nil, errors.New("autoscale: nil sim")
	}
	cfg.applyDefaults()
	return &Scaler{cfg: cfg, sim: s}, nil
}

// Acquire reserves one container for a batch of the given model,
// spawning a new container when no warm one is available. It returns the
// cold-start delay the batch must pay (0 for a warm container).
func (s *Scaler) Acquire(modelName string) (float64, error) {
	if modelName == "" {
		return 0, fmt.Errorf("autoscale: empty model name")
	}
	p := s.pool(modelName)
	s.expire(p)
	if n := len(p.idleSince); n > 0 {
		// Reuse the most recently idled container (LIFO) so the oldest
		// ones age out.
		p.idleSince = p.idleSince[:n-1]
		p.busy++
		return 0, nil
	}
	s.coldStarts++
	s.spawned++
	p.busy++
	return coldStart, nil
}

// Release returns a container to the pool after its batch completes.
func (s *Scaler) Release(modelName string) error {
	p := s.find(modelName)
	if p == nil || p.busy <= 0 {
		return fmt.Errorf("autoscale: release without acquire for %q", modelName)
	}
	p.busy--
	if s.cfg.Immediate {
		s.spawned--
		return nil
	}
	p.idleSince = append(p.idleSince, s.sim.Now())
	return nil
}

// Abort cancels an Acquire whose container load failed before serving
// (injected cold-start failure): the reservation is released and the
// half-booted container is torn down rather than returned to the pool,
// so the retry pays a fresh cold start unless another warm container
// freed up meanwhile.
func (s *Scaler) Abort(modelName string) error {
	p := s.find(modelName)
	if p == nil || p.busy <= 0 {
		return fmt.Errorf("autoscale: abort without acquire for %q", modelName)
	}
	p.busy--
	s.spawned--
	return nil
}

// expire reclaims idle containers past the keep-alive window (delayed
// termination).
func (s *Scaler) expire(p *pool) {
	cutoff := s.sim.Now() - s.cfg.KeepAlive
	drop := 0
	for drop < len(p.idleSince) && p.idleSince[drop] <= cutoff {
		drop++
	}
	if drop > 0 {
		p.idleSince = p.idleSince[drop:]
		s.spawned -= drop
		s.emit("expire", p.name, drop)
	}
}

// emit traces one autoscale decision when tracing is enabled.
func (s *Scaler) emit(verb, modelName string, containers int) {
	tr := s.sim.Tracer()
	if !tr.Enabled() {
		return
	}
	ev := obs.At(s.sim.Now(), obs.KindAutoscale)
	ev.Node = s.Node
	ev.Model = modelName
	ev.Detail = verb
	ev.Value = float64(containers)
	tr.Emit(ev)
}

// search returns where the model's pool is, or would be inserted, in
// the name order, and whether it exists.
func (s *Scaler) search(modelName string) (int, bool) {
	return slices.BinarySearchFunc(s.pools, modelName, func(p *pool, name string) int {
		return strings.Compare(p.name, name)
	})
}

// find returns the model's pool, or nil when it has none.
func (s *Scaler) find(modelName string) *pool {
	if i, ok := s.search(modelName); ok {
		return s.pools[i]
	}
	return nil
}

// pool returns the model's pool, creating it in name order on first
// use.
func (s *Scaler) pool(modelName string) *pool {
	i, ok := s.search(modelName)
	if !ok {
		s.pools = slices.Insert(s.pools, i, &pool{name: modelName})
	}
	return s.pools[i]
}

// Sweep expires idle containers across all pools (called on monitor
// ticks), visiting pools in sorted name order for reproducibility.
func (s *Scaler) Sweep() {
	for _, p := range s.pools {
		s.expire(p)
	}
}

// Prewarm provisions n idle warm containers for a model up front
// (PROTEAN's conservative container provisioning).
func (s *Scaler) Prewarm(modelName string, n int) {
	if modelName == "" || n <= 0 {
		return
	}
	p := s.pool(modelName)
	for i := 0; i < n; i++ {
		p.idleSince = append(p.idleSince, s.sim.Now())
		s.spawned++
	}
	s.emit("prewarm", modelName, n)
}

// Drain reclaims every idle warm container for a model immediately,
// regardless of its keep-alive deadline, and returns how many were
// reclaimed — the control plane's scale-to-zero hook. Busy containers
// are untouched; they leave through Release and the usual expiry once
// their batches complete. A drained pool pays a fresh cold start on the
// next Acquire (wake-up goes through the ordinary cold-start model).
func (s *Scaler) Drain(modelName string) int {
	p := s.find(modelName)
	if p == nil || len(p.idleSince) == 0 {
		return 0
	}
	n := len(p.idleSince)
	p.idleSince = p.idleSince[:0]
	s.spawned -= n
	s.emit("drain", modelName, n)
	return n
}

// ColdStarts returns the number of cold starts incurred so far.
func (s *Scaler) ColdStarts() int { return s.coldStarts }

// Warm returns the number of live containers (busy + idle) for a model.
func (s *Scaler) Warm(modelName string) int {
	p := s.find(modelName)
	if p == nil {
		return 0
	}
	s.expire(p)
	return p.busy + len(p.idleSince)
}
