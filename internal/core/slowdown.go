package core

import (
	"math"

	"protean/internal/gpu"
	"protean/internal/model"
)

// Slowdown implements Eq. (2): the slowdown factor η an incoming job of
// model m would suffer on slice sl, combining the Resource Deficiency
// Factor with the projected contention — bandwidth (Eq. 1) and SM
// demand — of everything already on the slice plus the incoming job
// itself, each normalized by the incoming job's own demand.
//
// beTagFBR adds the contention expected from best-effort work assigned
// to the slice via Algorithm 1's tag_values but not yet running.
func Slowdown(sl *gpu.Slice, m *model.Model, beTagFBR float64) float64 {
	rdf := m.RDF(sl.Prof)
	amp := gpu.DefaultInterferenceAmp
	if g := sl.GPU(); g != nil {
		amp = g.InterferenceAmp
	}
	_, sens := m.Cache()
	own := m.FBR()
	// Tagged-but-unscheduled BE work is assumed CNN-like (pollution 1).
	others := beTagFBR * (1 + float64(amp*sens))
	sm := math.Min(m.ComputeDemand()/sl.Prof.ComputeFrac, 1)
	ownSM := math.Max(sm, 1)
	// The accumulation order is fixed: running jobs in start order, then
	// pending ones in queue order. The float64 conversions here and above
	// keep the compiler from fusing x*y + z, so every architecture rounds
	// alike.
	accumulate := func(j *gpu.Job) {
		poll, _ := j.W.Cache()
		others += float64(j.W.FBR() * (1 + float64(amp*poll*sens)))
		sm += jobComputeDemand(j, sl.Prof)
	}
	sl.EachRunning(accumulate)
	sl.EachPending(accumulate)
	bwTerm := math.Max(own+others, 1) / math.Max(own, 1)
	smTerm := math.Max(sm, 1) / ownSM
	return rdf * math.Max(math.Max(bwTerm, smTerm), 1)
}

// jobComputeDemand is a resident job's SM demand as a fraction of the
// slice's SMs.
func jobComputeDemand(j *gpu.Job, p gpu.Profile) float64 {
	return math.Min(j.W.ComputeDemand()/p.ComputeFrac, 1)
}

// Distributor implements Algorithm 1's helper methods: strict jobs go to
// the non-BE-saturated slice with minimal slowdown factor η; best-effort
// jobs are packed first-fit onto the fewest, smallest slices.
type Distributor struct {
	// BEFBR estimates the FBR of tagged-but-unscheduled BE work per GB
	// of tagged memory; multiplied by tag_value × slice memory it
	// approximates future BE contention. Zero disables tag awareness.
	BEFBRPerGB float64
}

// TagSlices implements lines 1–8 of Algorithm 1: walk slices in
// ascending resource order, marking the fraction of each slice's
// available memory that queued BE work will occupy.
func TagSlices(g *gpu.GPU, beMem float64) map[*gpu.Slice]float64 {
	tags := make(map[*gpu.Slice]float64)
	for _, sl := range g.SlicesAscending() {
		if beMem <= 0 {
			break
		}
		avail := sl.Prof.MemGB
		tag := math.Min(1, beMem/avail)
		tags[sl] = tag
		beMem = math.Max(0, beMem-avail)
	}
	return tags
}

// ChooseStrictSlice implements choose_strict_slice (Algorithm 1, step 7):
// among slices not fully claimed by BE work (tag < 1) that can fit the
// model, pick the one with the least slowdown factor η.
func (d *Distributor) ChooseStrictSlice(g *gpu.GPU, m *model.Model, tags map[*gpu.Slice]float64) (*gpu.Slice, error) {
	var best *gpu.Slice
	bestEta := math.Inf(1)
	for _, sl := range g.Slices() {
		if !fits(sl, m) {
			continue
		}
		tag := tags[sl]
		if tag >= 1 {
			continue
		}
		beTagFBR := d.BEFBRPerGB * tag * sl.Prof.MemGB
		eta := Slowdown(sl, m, beTagFBR)
		if eta < bestEta {
			bestEta = eta
			best = sl
		}
	}
	if best == nil {
		// Every slice is BE-saturated or too small: fall back to the
		// least-η slice that at least fits, ignoring tags.
		for _, sl := range g.Slices() {
			if !fits(sl, m) {
				continue
			}
			eta := Slowdown(sl, m, 0)
			if eta < bestEta {
				bestEta = eta
				best = sl
			}
		}
	}
	if best == nil {
		return nil, ErrNoSlice
	}
	return best, nil
}

// ChooseBestEffortSlice implements choose_best_effort_slice (Algorithm 1,
// step 8): first-fit pack BE batches onto the fewest, smallest slices
// with free memory, spilling to larger slices only when needed.
func (d *Distributor) ChooseBestEffortSlice(g *gpu.GPU, m *model.Model) (*gpu.Slice, error) {
	need := 0.0
	var fallback *gpu.Slice
	for _, sl := range g.SlicesAscending() {
		if !fits(sl, m) {
			continue
		}
		need = m.MemGB(sl.Prof)
		if sl.AvailableMemGB() >= need {
			return sl, nil
		}
		if fallback == nil {
			fallback = sl
		}
	}
	// Nothing has free memory right now: queue on the smallest slice
	// that can eventually run the batch.
	if fallback != nil {
		return fallback, nil
	}
	return nil, ErrNoSlice
}
