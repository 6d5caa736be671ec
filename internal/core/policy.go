// Package core implements the paper's primary contribution: PROTEAN's
// slowdown model (Eq. 1/2), the Job Distribution logic (Algorithm 1),
// and the request-serving policies of every evaluated scheme —
// Molecule (beta) time sharing, INFless/Llama MPS-only consolidation,
// Naïve Slicing, MIG-only, the MPS+MIG straw men of §2.2, GPUlet-style
// strategic MPS, the Oracle, and PROTEAN itself.
package core

import (
	"errors"

	"protean/internal/gpu"
	"protean/internal/model"
)

// ErrNoSlice reports that no slice in the current geometry can host the
// batch (e.g. the GPU is reconfiguring, or the model does not fit).
var ErrNoSlice = errors.New("core: no suitable slice")

// QueueView is the per-monitor-window queue information Algorithm 2
// consumes (curr_queue_info).
type QueueView struct {
	// BEBatchesLastWindow counts best-effort batches that arrived at
	// the node during the last monitor window.
	BEBatchesLastWindow int
	// BEMemPerBatch is the current BE model's per-batch memory
	// footprint on a partial slice.
	BEMemPerBatch float64
	// NextWindowBEBatches is the true number of BE batches arriving in
	// the NEXT window — available only to the Oracle (see Lookahead).
	NextWindowBEBatches int
	// NextWindowBEMemPerBatch is the true upcoming BE model footprint —
	// available only to the Oracle.
	NextWindowBEMemPerBatch float64
	// WindowSeconds is the monitor window length.
	WindowSeconds float64
	// BESolo returns the current BE model's solo batch time on a
	// profile (nil when no BE model has been seen).
	BESolo func(p gpu.Profile) float64
}

// Policy is one request-serving scheme. The cluster instantiates one
// Policy per worker node (policies may hold per-GPU state such as the
// reconfiguration planner).
type Policy interface {
	// Name identifies the scheme.
	Name() string
	// Sharing selects MPS or time sharing for the node's GPU slices.
	Sharing() gpu.SharingMode
	// InitialGeometry is the MIG geometry installed at startup.
	InitialGeometry() gpu.Geometry
	// ReorderRequests enables strict-first request reordering (§4.1).
	ReorderRequests() bool
	// SMCap returns the MPS active-thread cap for a batch class
	// (GPUlet); 0 means uncapped.
	SMCap(strict bool) float64
	// Place selects the slice for a batch of model m on GPU g.
	Place(g *gpu.GPU, m *model.Model, strict bool) (*gpu.Slice, error)
	// DesiredGeometry is consulted every monitor window; it returns the
	// geometry to reconfigure to and whether a change should happen now
	// (Algorithm 2). Static schemes always return false.
	DesiredGeometry(g *gpu.GPU, view QueueView) (gpu.Geometry, bool)
}

// Factory builds one Policy instance per worker node.
type Factory func() Policy

// fits reports whether a batch of m can ever run on slice sl. Every
// placement policy funnels through here, so the failed-slice check
// routes all schemes around a slice that is offline for fault repair
// (graceful degradation under the chaos subsystem).
func fits(sl *gpu.Slice, m *model.Model) bool {
	return !sl.Failed() && m.MemGB(sl.Prof) <= sl.Prof.MemGB
}

// pendingBEMem totals the memory demand of best-effort jobs queued on
// the GPU — the BE_mem input of Algorithm 1.
func pendingBEMem(g *gpu.GPU) float64 {
	total := 0.0
	for _, sl := range g.Slices() {
		sl.EachPending(func(j *gpu.Job) {
			if !j.Strict {
				total += j.W.MemGB(sl.Prof)
			}
		})
	}
	return total
}
