package model

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"protean/internal/gpu"
	"protean/internal/mathx"
	"protean/internal/sim"
)

// Profiler estimates model interference coefficients the way §3
// describes: run multiple co-locations of each model on a (simulated)
// GPU, observe the slowdowns of Eq. (1), derive one linear equation per
// observation, and solve the system by least squares. PROTEAN consumes
// these estimates — not the ground-truth zoo values — so estimation
// error propagates into scheduling exactly as it would on hardware.
//
// For bandwidth-bound models (the HI/VHI/GPT workloads) the estimates
// recover the true FBR. For compute-bound LI models, co-location
// slowdown is dominated by SM sharing, so the estimate converges to the
// model's compute demand instead — the *effective* interference
// coefficient, which is exactly the quantity Eq. (2) placement needs.
//
// Bandwidth-saturating models (FBR ≥ 1, the HI/VHI workloads) need
// special handling: k homogeneous co-located copies all slow down by
// exactly k (the contention is normalized by the job's own demand), so
// their FBR is unidentifiable from homogeneous runs. The profiler
// detects this signature and recovers their FBR by co-locating them
// with a light, already-estimated "probe" model and reading the probe's
// slowdown, which is linear in the saturated model's FBR.
type Profiler struct {
	// Replicas is the maximum number of co-located copies tried per
	// homogeneous observation (default 6).
	Replicas int
	// Seed seeds the profiling simulations.
	Seed int64
	// Probe is the light workload used against saturated models; nil
	// defaults to ShuffleNet V2.
	Probe *Model
}

// ErrUnprofilable reports a model whose co-locations never exceeded the
// interference floor, leaving its FBR unidentifiable.
var ErrUnprofilable = errors.New("model: FBR unidentifiable from co-location slowdowns")

// observation is one co-location run: the first-finishing job's model,
// the replica counts, and its observed slowdown. Cache pollution and
// sensitivity coefficients are directly measurable with hardware
// counters, so the profiler treats them (and the amplification factor
// γ) as known; an unsaturated first finisher of model f then obeys the
// linear equation
//
//	slowdown = fbr_f + Σ_{i≠f} count'_i·fbr_i·(1 + γ·poll_i·sens_f),
//
// where count' subtracts the first finisher itself.
type observation struct {
	counts   map[string]int
	first    string
	slowdown float64
}

// EstimateFBRs profiles each model and returns FBR estimates keyed by
// model name.
func (p *Profiler) EstimateFBRs(models []*Model) (map[string]float64, error) {
	if len(models) == 0 {
		return nil, errors.New("model: no models to profile")
	}
	replicas := p.Replicas
	if replicas <= 0 {
		replicas = 6
	}
	probe := p.Probe
	if probe == nil {
		probe = MustByName("DistilBERT")
	}

	const satEps = 1e-6
	amp := gpu.DefaultInterferenceAmp

	// Phase 1: homogeneous co-locations. A saturated model (FBR >= 1)
	// slows by exactly the ceiling 1 + (k−1)(1 + γ·poll·sens) at every
	// replica count, which leaves its FBR unidentifiable.
	var unsat []*Model
	var saturated []*Model
	var obs []observation
	for _, m := range models {
		informative, allAtCeiling := false, true
		ran := false
		for k := 2; k <= replicas; k++ {
			if float64(k)*m.MemGB(gpu.Profile7g) > gpu.Profile7g.MemGB {
				break
			}
			ran = true
			o, err := p.measure(map[*Model]int{m: k})
			if err != nil {
				return nil, fmt.Errorf("profile %s×%d: %w", m.name, k, err)
			}
			poll, sens := m.Cache()
			ceiling := 1 + float64(float64(k-1)*(1+float64(amp*poll*sens)))
			if math.Abs(o.slowdown-ceiling) > satEps {
				allAtCeiling = false
			}
			if o.slowdown > 1+satEps && math.Abs(o.slowdown-ceiling) > satEps {
				informative = true
				obs = append(obs, o)
			}
		}
		switch {
		case ran && allAtCeiling:
			saturated = append(saturated, m)
		case informative:
			unsat = append(unsat, m)
		default:
			// Low-FBR model that never left the floor: keep it in the
			// unsaturated system; mixed pairs below may still identify
			// it, otherwise solving fails with ErrUnprofilable.
			unsat = append(unsat, m)
		}
	}

	// Phase 2: mixed pairs among unsaturated models add cross equations.
	for i, m := range unsat {
		if len(unsat) < 2 {
			break
		}
		partner := unsat[(i+1)%len(unsat)]
		if partner == m {
			continue
		}
		need := 2*m.MemGB(gpu.Profile7g) + 2*partner.MemGB(gpu.Profile7g)
		if need > gpu.Profile7g.MemGB {
			continue
		}
		o, err := p.measure(map[*Model]int{m: 2, partner: 2})
		if err != nil {
			return nil, fmt.Errorf("profile %s+%s: %w", m.name, partner.name, err)
		}
		obs = append(obs, o)
	}

	// Make sure the probe itself is estimated.
	est := make(map[string]float64, len(models)+1)
	probeInSet := false
	for _, m := range unsat {
		if m.name == probe.name {
			probeInSet = true
		}
	}
	if len(unsat) > 0 {
		solved, err := solveFBR(unsat, obs)
		if err != nil {
			return nil, err
		}
		for k, v := range solved {
			est[k] = v
		}
	}
	if len(saturated) > 0 && !probeInSet {
		probeEst, err := p.estimateProbe(probe, replicas)
		if err != nil {
			return nil, fmt.Errorf("profile probe %s: %w", probe.name, err)
		}
		est[probe.name] = probeEst
	}

	// Phase 3: saturated models via probe co-location. If the probe
	// finishes first its slowdown is fbr_m + k·fbr_probe; if the
	// saturated model finishes first its own (self-normalized) slowdown
	// is 1 + k·fbr_probe/fbr_m. Either way fbr_m is identified given
	// the probe's estimate.
	for _, m := range saturated {
		probeCopies := 2
		need := m.MemGB(gpu.Profile7g) + float64(probeCopies)*probe.MemGB(gpu.Profile7g)
		if need > gpu.Profile7g.MemGB {
			probeCopies = 1
		}
		slow, probeFirst, err := p.measureProbeSlowdown(m, probe, probeCopies)
		if err != nil {
			return nil, fmt.Errorf("profile %s vs probe: %w", m.name, err)
		}
		fp := est[probe.name]
		pollM, sensM := m.Cache()
		pollP, sensP := probe.Cache()
		mOnProbe := 1 + float64(amp*pollM*sensP) // m's amplified impact per unit FBR on the probe
		probeOnProbe := 1 + float64(amp*pollP*sensP)
		probeOnM := 1 + float64(amp*pollP*sensM)
		var fbr float64
		if probeFirst {
			// slow = fbr_p + (k−1)·fbr_p·probeOnProbe + fbr_m·mOnProbe.
			fbr = (slow - fp - float64(float64(probeCopies-1)*fp*probeOnProbe)) / mOnProbe
		} else if slow > 1.0001 {
			// slow = (fbr_m + k·fbr_p·probeOnM)/fbr_m.
			fbr = float64(probeCopies) * fp * probeOnM / (slow - 1)
		} else {
			return nil, fmt.Errorf("%w: %s showed no probe interference", ErrUnprofilable, m.name)
		}
		est[m.name] = math.Max(1, fbr)
	}

	out := make(map[string]float64, len(models))
	for _, m := range models {
		v, ok := est[m.name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnprofilable, m.name)
		}
		out[m.name] = v
	}
	return out, nil
}

// estimateProbe estimates the probe model's own FBR from homogeneous
// co-locations of itself.
func (p *Profiler) estimateProbe(probe *Model, replicas int) (float64, error) {
	var obs []observation
	for k := 2; k <= replicas+4; k++ {
		if float64(k)*probe.MemGB(gpu.Profile7g) > gpu.Profile7g.MemGB {
			break
		}
		o, err := p.measure(map[*Model]int{probe: k})
		if err != nil {
			return 0, err
		}
		if o.slowdown > 1.0001 {
			obs = append(obs, o)
		}
	}
	solved, err := solveFBR([]*Model{probe}, obs)
	if err != nil {
		return 0, err
	}
	return solved[probe.name], nil
}

func solveFBR(models []*Model, obs []observation) (map[string]float64, error) {
	amp := gpu.DefaultInterferenceAmp
	index := make(map[string]int, len(models))
	byName := make(map[string]*Model, len(models))
	for i, m := range models {
		index[m.name] = i
		byName[m.name] = m
	}
	var rowsA [][]float64
	var rowsB []float64
	for _, o := range obs {
		// Only slowdowns above the max{·, 1} floor carry information.
		if o.slowdown <= 1.0001 {
			continue
		}
		firstModel, okFirst := byName[o.first]
		if !okFirst {
			continue
		}
		_, sensF := firstModel.Cache()
		row := make([]float64, len(models))
		usable := true
		for name, n := range o.counts {
			i, ok := index[name]
			if !ok {
				usable = false
				//lint:ignore maporder the row is discarded whenever any name is unknown, so the exit point does not affect the outcome
				break
			}
			poll, _ := byName[name].Cache()
			onFirst := 1 + float64(amp*poll*sensF)
			coeff := float64(n) * onFirst
			if name == o.first {
				// The first finisher's own demand is unamplified.
				coeff = 1 + float64(float64(n-1)*onFirst)
			}
			row[i] = coeff
		}
		if !usable {
			continue
		}
		rowsA = append(rowsA, row)
		rowsB = append(rowsB, o.slowdown)
	}
	if len(rowsA) < len(models) {
		return nil, fmt.Errorf("%w: only %d informative observations for %d models",
			ErrUnprofilable, len(rowsA), len(models))
	}
	x, err := mathx.SolveLeastSquares(rowsA, rowsB)
	if err != nil {
		return nil, fmt.Errorf("model: solve FBR system: %w", err)
	}
	out := make(map[string]float64, len(models))
	for i, m := range models {
		out[m.name] = math.Max(0, x[i])
	}
	return out, nil
}

// measure runs one co-location mix on a fresh simulated 7g instance and
// returns the equation derived from the first-finishing job, the only
// job guaranteed to have experienced the full mix for its entire
// lifetime.
func (p *Profiler) measure(mix map[*Model]int) (observation, error) {
	jobs, err := p.runMix(mix)
	if err != nil {
		return observation{}, err
	}
	first := jobs[0]
	for _, r := range jobs[1:] {
		if r.job.Finished() < first.job.Finished() {
			first = r
		}
	}
	counts := make(map[string]int, len(mix))
	for m, n := range mix {
		counts[m.name] = n
	}
	elapsed := first.job.Finished() - first.job.Started()
	return observation{counts: counts, first: first.model.name, slowdown: elapsed / first.model.Solo7g()}, nil
}

// measureProbeSlowdown co-locates one copy of m with probeCopies of the
// probe and returns the first finisher's observed slowdown, reporting
// whether that first finisher was a probe copy.
func (p *Profiler) measureProbeSlowdown(m, probe *Model, probeCopies int) (slow float64, probeFirst bool, err error) {
	jobs, err := p.runMix(map[*Model]int{m: 1, probe: probeCopies})
	if err != nil {
		return 0, false, err
	}
	first := jobs[0]
	for _, r := range jobs[1:] {
		if r.job.Finished() < first.job.Finished() {
			first = r
		}
	}
	elapsed := first.job.Finished() - first.job.Started()
	return elapsed / first.model.Solo7g(), first.model == probe, nil
}

type profJob struct {
	model *Model
	job   *gpu.Job
}

// runMix executes a co-location mix on a fresh 7g MPS instance.
func (p *Profiler) runMix(mix map[*Model]int) ([]profJob, error) {
	s := sim.New(p.Seed + 1)
	g, err := gpu.NewGPU(s, 0, gpu.ArchA100(), gpu.MustGeometry(gpu.Profile7g), gpu.ShareMPS)
	if err != nil {
		return nil, err
	}
	sl := g.Slices()[0]

	// Materialize the mix in sorted model order: job start order feeds
	// the engine's tie-breaking, so map iteration order must not leak in.
	type mixEntry struct {
		m *Model
		n int
	}
	entries := make([]mixEntry, 0, len(mix))
	for m, n := range mix {
		entries = append(entries, mixEntry{m: m, n: n})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].m.name < entries[j].m.name })

	var jobs []profJob
	memTotal := 0.0
	for _, e := range entries {
		memTotal += float64(float64(e.n) * e.m.MemGB(gpu.Profile7g))
		for i := 0; i < e.n; i++ {
			jobs = append(jobs, profJob{model: e.m, job: &gpu.Job{W: e.m}})
		}
	}
	if memTotal > gpu.Profile7g.MemGB {
		return nil, fmt.Errorf("co-location mix needs %.1f GB > %.0f GB", memTotal, gpu.Profile7g.MemGB)
	}
	for _, r := range jobs {
		if err := sl.Submit(r.job); err != nil {
			return nil, err
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// NormalizedFBR returns estimates scaled so the maximum is 1 — the
// presentation used by Figure 3.
func NormalizedFBR(est map[string]float64) map[string]float64 {
	maxV := 0.0
	for _, v := range est {
		maxV = math.Max(maxV, v)
	}
	out := make(map[string]float64, len(est))
	for k, v := range est {
		if maxV > 0 {
			out[k] = v / maxV
		}
	}
	return out
}
