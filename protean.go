// Package protean is the public API of the PROTEAN reproduction: an
// SLO-compliant, cost-effective GPU-enabled serverless framework that
// leverages the MIG and MPS capabilities of A100-class GPUs
// (Bhasi et al., MIDDLEWARE '24), running on a faithful discrete-event
// simulation of the paper's 8-GPU testbed.
//
// Quick start:
//
//	pf, err := protean.New(protean.WithScheme(protean.SchemePROTEAN))
//	...
//	res, err := pf.Run(protean.Workload{
//	    StrictModel:    "ResNet 50",
//	    StrictFraction: 0.5,
//	    MeanRPS:        9000,
//	    Duration:       60 * time.Second,
//	})
//	fmt.Printf("SLO compliance: %.2f%%\n", res.SLOCompliance*100)
package protean

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"protean/internal/chaos"
	"protean/internal/core"
	"protean/internal/experiments"
	"protean/internal/gpu"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/trace"
	"protean/internal/vm"
)

// Scheme names a request-serving policy.
type Scheme string

// The available schemes: PROTEAN, the paper's baselines, and the §2.2
// straw men.
const (
	SchemePROTEAN      Scheme = "protean"
	SchemeOracle       Scheme = "oracle"
	SchemeMoleculeBeta Scheme = "molecule-beta"
	SchemeINFlessLlama Scheme = "infless-llama"
	SchemeNaiveSlicing Scheme = "naive-slicing"
	SchemeMIGOnly      Scheme = "mig-only"
	SchemeMPSOnly      Scheme = "mps-only"
	SchemeNoSharing    Scheme = "no-sharing"
	SchemeGPUlet       Scheme = "gpulet"
)

// Schemes lists every available scheme.
func Schemes() []Scheme {
	return []Scheme{
		SchemePROTEAN, SchemeOracle, SchemeMoleculeBeta, SchemeINFlessLlama,
		SchemeNaiveSlicing, SchemeMIGOnly, SchemeMPSOnly, SchemeNoSharing,
		SchemeGPUlet,
	}
}

// factory resolves a scheme to its policy factory.
func (s Scheme) factory() (core.Factory, error) {
	switch s {
	case SchemePROTEAN:
		return core.NewProtean(core.ProteanConfig{}), nil
	case SchemeOracle:
		return core.NewOracle(), nil
	case SchemeMoleculeBeta:
		return core.NewMoleculeBeta(), nil
	case SchemeINFlessLlama:
		return core.NewINFlessLlama(), nil
	case SchemeNaiveSlicing:
		return core.NewNaiveSlicing(nil), nil
	case SchemeMIGOnly:
		return core.NewMIGOnly(nil), nil
	case SchemeMPSOnly:
		return core.NewMPSOnly(), nil
	case SchemeNoSharing:
		return core.NewNoSharing(), nil
	case SchemeGPUlet:
		return core.NewGPUlet(0, 0), nil
	default:
		return nil, fmt.Errorf("protean: unknown scheme %q", s)
	}
}

// Procurement selects the VM procurement policy of §4.5.
type Procurement string

// Procurement modes.
const (
	// ProcurementNone disables the VM cost layer entirely.
	ProcurementNone Procurement = ""
	// ProcurementOnDemand uses only reliable full-price VMs.
	ProcurementOnDemand Procurement = "on-demand"
	// ProcurementHybrid is PROTEAN's spot-preferred policy.
	ProcurementHybrid Procurement = "hybrid"
	// ProcurementSpotOnly uses only spot VMs.
	ProcurementSpotOnly Procurement = "spot-only"
)

// SpotAvailability names the spot-market scenario.
type SpotAvailability string

// Spot availability levels (§5).
const (
	SpotHigh     SpotAvailability = "high"
	SpotModerate SpotAvailability = "moderate"
	SpotLow      SpotAvailability = "low"
)

func (a SpotAvailability) toVM() (vm.Availability, error) {
	switch a {
	case SpotHigh, "":
		return vm.AvailabilityHigh, nil
	case SpotModerate:
		return vm.AvailabilityModerate, nil
	case SpotLow:
		return vm.AvailabilityLow, nil
	default:
		return vm.Availability{}, fmt.Errorf("protean: unknown spot availability %q", a)
	}
}

// Config is the platform configuration.
type Config struct {
	// Nodes is the number of GPU worker nodes (default 8).
	Nodes int
	// Scheme is the request-serving policy (default SchemePROTEAN).
	Scheme Scheme
	// SLOMultiplier scales strict latency targets (default 3).
	SLOMultiplier float64
	// Procurement selects the VM cost layer (default none).
	Procurement Procurement
	// SpotAvailability tunes the spot market when procurement is
	// enabled.
	SpotAvailability SpotAvailability
	// Seed drives all randomness (default 1).
	Seed int64
	// Warmup excludes the container ramp-up period from metrics.
	Warmup time.Duration
	// GPUArch selects the GPU generation ("a100" default, "h100" for
	// the §7 generalizability study).
	GPUArch string
	// Tracer receives lifecycle events from the run (nil disables
	// tracing; see internal/obs).
	Tracer obs.Tracer
	// ChaosScale enables deterministic fault injection at a multiple of
	// the reference fault mix (0 disables — the default; 1 is the
	// reference mix; see internal/chaos).
	ChaosScale float64
}

// Option mutates the configuration.
type Option func(*Config)

// WithNodes sets the worker count.
func WithNodes(n int) Option { return func(c *Config) { c.Nodes = n } }

// WithScheme selects the serving policy.
func WithScheme(s Scheme) Option { return func(c *Config) { c.Scheme = s } }

// WithSLOMultiplier sets the strict latency target multiplier.
func WithSLOMultiplier(m float64) Option { return func(c *Config) { c.SLOMultiplier = m } }

// WithProcurement enables the VM cost layer.
func WithProcurement(p Procurement, a SpotAvailability) Option {
	return func(c *Config) {
		c.Procurement = p
		c.SpotAvailability = a
	}
}

// WithSeed sets the random seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithWarmup excludes an initial ramp-up window from metrics.
func WithWarmup(d time.Duration) Option { return func(c *Config) { c.Warmup = d } }

// WithGPUArch selects the GPU generation: "a100" (the paper's testbed)
// or "h100" (the §7 generalizability claim).
func WithGPUArch(arch string) Option { return func(c *Config) { c.GPUArch = arch } }

// WithTracer attaches an observability tracer (e.g. *obs.Collector) to
// every run; events carry virtual-time stamps, so traces of a seeded
// run are deterministic. The tracer is a pure observer — attaching one
// changes no scheduling decision or metric.
func WithTracer(t obs.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// WithChaos enables deterministic fault injection: slice failures,
// stuck/aborted reconfigurations, stragglers, cold-start failures, and
// preemption storms at scale times the reference mix (1 = reference;
// 0 disables, leaving runs byte-identical to a chaos-free build). The
// fault schedule is a pure function of the seed.
func WithChaos(scale float64) Option { return func(c *Config) { c.ChaosScale = scale } }

// Platform is a configured serverless platform ready to serve workloads.
type Platform struct {
	cfg Config
}

// New builds a platform.
func New(opts ...Option) (*Platform, error) {
	cfg := Config{
		Nodes:         8,
		Scheme:        SchemePROTEAN,
		SLOMultiplier: model.DefaultSLOMultiplier,
		Seed:          1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("protean: %d nodes, want > 0", cfg.Nodes)
	}
	if _, err := cfg.Scheme.factory(); err != nil {
		return nil, err
	}
	if _, err := cfg.SpotAvailability.toVM(); err != nil {
		return nil, err
	}
	if _, err := resolveArch(cfg.GPUArch); err != nil {
		return nil, err
	}
	return &Platform{cfg: cfg}, nil
}

// TraceShape selects the arrival-rate profile.
type TraceShape string

// Trace shapes (§5).
const (
	// TraceConstant is a flat arrival rate.
	TraceConstant TraceShape = "constant"
	// TraceWiki is the diurnal Wikipedia-like trace.
	TraceWiki TraceShape = "wiki"
	// TraceTwitter is the bursty Twitter-like trace (MeanRPS is
	// interpreted as the peak).
	TraceTwitter TraceShape = "twitter"
)

// DefaultDuration is the trace length Run uses for a Workload whose
// Duration is not positive.
const DefaultDuration = 60 * time.Second

// Workload describes one serving scenario.
type Workload struct {
	// StrictModel names the strict-SLO model (see Models()).
	StrictModel string
	// BEModels names the rotating best-effort pool; empty derives the
	// paper's opposite-class pool.
	BEModels []string
	// StrictFraction is the strict share of requests (default 0.5).
	StrictFraction float64
	// Shape selects the trace (default TraceConstant).
	Shape TraceShape
	// MeanRPS is the mean arrival rate (peak for TraceTwitter).
	MeanRPS float64
	// Duration is the trace length (default DefaultDuration).
	Duration time.Duration
	// RotateEvery changes the active BE model (default ~20 s).
	RotateEvery time.Duration
}

// Result summarizes one run.
type Result struct {
	// SLOCompliance is the fraction of strict requests meeting their
	// target.
	SLOCompliance float64
	// StrictP50 and StrictP99 are strict latency percentiles.
	StrictP50, StrictP99 time.Duration
	// BEP50 and BEP99 are best-effort latency percentiles.
	BEP50, BEP99 time.Duration
	// Requests is the number of recorded requests.
	Requests int
	// GPUUtilization and MemoryUtilization average across GPUs.
	GPUUtilization, MemoryUtilization float64
	// ColdStarts counts container cold starts.
	ColdStarts int
	// Reconfigurations counts MIG geometry changes.
	Reconfigurations int
	// NormalizedCost is spending relative to an all-on-demand fleet
	// (zero without a procurement layer).
	NormalizedCost float64
	// Availability is the completed/offered request ratio (1 when every
	// offered request completed; faults and drops lower it).
	Availability float64
	// Requeued counts requests re-dispatched after an injected slice
	// failure orphaned their batch (zero without chaos).
	Requeued int
	// Retries counts backoff retries after injected cold-start failures
	// (zero without chaos).
	Retries int
	// GeometryTimeline records MIG geometry installations.
	GeometryTimeline []GeometryChange
	// Models summarizes served traffic per model (sorted by name).
	Models []metrics.ModelStats
}

// GeometryChange is one MIG geometry installation.
type GeometryChange struct {
	// At is the virtual time of the change.
	At time.Duration
	// Node is the worker index.
	Node int
	// Geometry is the installed layout, e.g. "(4g, 3g)".
	Geometry string
}

// Run executes the workload and returns its metrics. It builds one
// experiments.Scenario and runs it through experiments.RunScenario, the
// path every experiment cell takes.
func (p *Platform) Run(w Workload) (*Result, error) {
	strict, ok := model.ByName(w.StrictModel)
	if !ok && w.StrictFraction != 0 {
		return nil, fmt.Errorf("protean: unknown model %q", w.StrictModel)
	}
	var pool []*model.Model
	for _, name := range w.BEModels {
		m, ok := model.ByName(name)
		if !ok {
			return nil, fmt.Errorf("protean: unknown BE model %q", name)
		}
		pool = append(pool, m)
	}
	duration := w.Duration.Seconds()
	if duration <= 0 {
		duration = DefaultDuration.Seconds()
	}
	if w.MeanRPS <= 0 {
		return nil, errors.New("protean: workload needs a positive MeanRPS")
	}
	var rate trace.RateFn
	switch w.Shape {
	case TraceConstant, "":
		rate = trace.Constant(w.MeanRPS)
	case TraceWiki:
		rate = trace.ScaleToMean(trace.Diurnal(1, trace.DefaultWikiPeakToMean, duration), w.MeanRPS, duration)
	case TraceTwitter:
		rate = trace.ScaleToPeak(trace.Erratic(1, trace.DefaultTwitterPeakToMean, duration, p.cfg.Seed), w.MeanRPS, duration)
	default:
		return nil, fmt.Errorf("protean: unknown trace shape %q", w.Shape)
	}
	factory, err := p.cfg.Scheme.factory()
	if err != nil {
		return nil, err
	}
	var vmCfg *vm.Config
	if p.cfg.Procurement != ProcurementNone {
		avail, err := p.cfg.SpotAvailability.toVM()
		if err != nil {
			return nil, err
		}
		mode := vm.ModeOnDemandOnly
		switch p.cfg.Procurement {
		case ProcurementHybrid:
			mode = vm.ModeSpotPreferred
		case ProcurementSpotOnly:
			mode = vm.ModeSpotOnly
		case ProcurementOnDemand:
		default:
			return nil, fmt.Errorf("protean: unknown procurement %q", p.cfg.Procurement)
		}
		vmCfg = &vm.Config{Mode: mode, Availability: avail, CheckInterval: 45}
	}
	arch, err := resolveArch(p.cfg.GPUArch)
	if err != nil {
		return nil, err
	}
	var chaosCfg chaos.Config
	if p.cfg.ChaosScale > 0 {
		chaosCfg = chaos.DefaultConfig().Scaled(p.cfg.ChaosScale)
	}
	res, err := experiments.RunScenario(experiments.Params{
		Nodes:    p.cfg.Nodes,
		Duration: duration,
		Warmup:   p.cfg.Warmup.Seconds(),
		Seed:     p.cfg.Seed,
		Chaos:    chaosCfg,
	}, experiments.Scenario{
		Strict:        strict,
		BEPool:        pool,
		StrictFrac:    w.StrictFraction,
		Rate:          rate,
		SLOMultiplier: p.cfg.SLOMultiplier,
		Policy:        factory,
		VM:            vmCfg,
		RotatePeriod:  w.RotateEvery.Seconds(),
		Arch:          arch,
	}, p.cfg.Tracer)
	if err != nil {
		return nil, err
	}

	rec := res.Recorder
	strictRec := rec.Strict()
	beRec := rec.BestEffort()
	out := &Result{
		SLOCompliance:     rec.SLOCompliance(),
		StrictP50:         secs(strictRec.Percentile(50)),
		StrictP99:         secs(strictRec.Percentile(99)),
		BEP50:             secs(beRec.Percentile(50)),
		BEP99:             secs(beRec.Percentile(99)),
		Requests:          rec.Requests(),
		GPUUtilization:    res.ComputeUtil,
		MemoryUtilization: res.MemUtil,
		ColdStarts:        res.ColdStarts,
		Reconfigurations:  res.Reconfigs,
		Availability:      res.Availability.Rate(),
		Requeued:          res.Availability.Requeued,
		Retries:           res.Availability.Retries,
		Models:            rec.Snapshot(),
	}
	if res.Cost != nil {
		out.NormalizedCost = res.Cost.Normalized
	}
	for _, ev := range res.Timeline {
		out.GeometryTimeline = append(out.GeometryTimeline, GeometryChange{
			At:       secs(ev.Time),
			Node:     ev.Node,
			Geometry: ev.Geometry,
		})
	}
	return out, nil
}

// resolveArch maps the config string to a GPU generation (nil = A100).
func resolveArch(name string) (*gpu.Arch, error) {
	switch strings.ToLower(name) {
	case "", "a100":
		return nil, nil
	case "h100", "hopper":
		arch := gpu.ArchH100()
		return &arch, nil
	default:
		return nil, fmt.Errorf("protean: unknown GPU architecture %q (a100, h100)", name)
	}
}

func secs(v float64) time.Duration {
	if v != v { // NaN (no samples)
		return 0
	}
	return time.Duration(v * float64(time.Second))
}

// ModelInfo describes one zoo workload.
type ModelInfo struct {
	// Name is the model name, e.g. "ResNet 50".
	Name string
	// Domain is "vision" or "language".
	Domain string
	// Class is the interference class ("LI", "HI", "VHI").
	Class string
	// BatchSize is the serving batch size.
	BatchSize int
	// SoloLatency is the batch execution time on an idle full GPU.
	SoloLatency time.Duration
	// SLO is the default (3×) strict latency target.
	SLO time.Duration
	// MemoryGB is the per-batch footprint.
	MemoryGB float64
}

// Models lists the 22 packaged inference workloads.
func Models() []ModelInfo {
	zoo := model.All()
	out := make([]ModelInfo, 0, len(zoo))
	for _, m := range zoo {
		out = append(out, ModelInfo{
			Name:        m.Name(),
			Domain:      m.Domain().String(),
			Class:       m.Class().String(),
			BatchSize:   m.BatchSize(),
			SoloLatency: secs(m.Solo7g()),
			SLO:         secs(m.SLO(model.DefaultSLOMultiplier)),
			MemoryGB:    m.MemGB(gpu.Profile7g),
		})
	}
	return out
}

// Experiments lists the reproducible paper artifacts ("fig5",
// "table4", ...) followed by the extras ("chaos", ...).
func Experiments() []string {
	reg := experiments.Registry()
	extras := experiments.Extras()
	out := make([]string, 0, len(reg)+len(extras))
	for _, e := range reg {
		out = append(out, e.ID)
	}
	for _, e := range extras {
		out = append(out, e.ID)
	}
	return out
}

// RunExperiment reproduces one paper table or figure and returns its
// rendered text tables. quick shrinks the sweep for fast smoke runs.
func RunExperiment(id string, quick bool) (string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("protean: unknown experiment %q (one of %s)", id, strings.Join(Experiments(), ", "))
	}
	report, err := e.Run(experiments.Params{Quick: quick})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := report.Render(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
