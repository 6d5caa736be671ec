// Admission control: per-tenant SLO classes, token-bucket rate
// limiting, and backlog-aware admit/shed/reject decisions.
//
// The decision at each ingest is a pure function of (tenant state,
// predicted queueing delay, virtual time), all of which evolve only at
// logged boundaries or simulation events — so replaying the ingest log
// reproduces every decision exactly.
package controlplane

import (
	"fmt"
	"hash/fnv"
	"math"

	"protean/internal/ewma"
	"protean/internal/metrics"
	"protean/internal/model"
)

// SLOClass is a named service tier.
type SLOClass struct {
	// Name identifies the class ("gold", "silver", "bronze").
	Name string `json:"name"`
	// Strict marks the class's requests as hard-deadline work for the
	// scheduler (bronze traffic is best effort).
	Strict bool `json:"strict"`
	// TargetMultiplier sets the latency target as a multiple of the
	// tenant model's solo-on-7g execution time.
	TargetMultiplier float64 `json:"targetMultiplier"`
	// RatePerSec is the token-bucket refill rate in requests/second
	// (0 disables rate limiting).
	RatePerSec float64 `json:"ratePerSec"`
	// Burst is the bucket depth in requests.
	Burst float64 `json:"burst"`
}

// The built-in service tiers. Gold pays for headroom: strict deadlines
// at the paper's default 3× multiplier and the largest rate allowance.
// Silver is strict with a looser target and allowance. Bronze is best
// effort: no deadline, lowest allowance, and sheddable under backlog
// pressure instead of being rejected outright.
var builtinClasses = []SLOClass{
	{Name: "gold", Strict: true, TargetMultiplier: 3, RatePerSec: 300, Burst: 600},
	{Name: "silver", Strict: true, TargetMultiplier: 6, RatePerSec: 200, Burst: 400},
	{Name: "bronze", Strict: false, TargetMultiplier: 10, RatePerSec: 100, Burst: 200},
}

// ClassByName looks up a built-in class.
func ClassByName(name string) (SLOClass, bool) {
	for _, c := range builtinClasses {
		if c.Name == name {
			return c, true
		}
	}
	return SLOClass{}, false
}

// TenantConfig declares one tenant.
type TenantConfig struct {
	// ID is the unique tenant identifier.
	ID string `json:"id"`
	// Model is the inference model the tenant invokes.
	Model string `json:"model"`
	// Class names the SLO class ("gold", "silver", "bronze"; default
	// "silver").
	Class string `json:"class,omitempty"`
	// TargetSeconds overrides the class latency target (0 keeps the
	// class multiplier over the model's solo latency).
	TargetSeconds float64 `json:"targetSeconds,omitempty"`
	// RatePerSec overrides the class token refill rate.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst overrides the class bucket depth.
	Burst float64 `json:"burst,omitempty"`
	// KeepWarmSeconds overrides the plane's idle window before the
	// tenant is scaled to zero.
	KeepWarmSeconds float64 `json:"keepWarmSeconds,omitempty"`
	// PrewarmCount is the number of containers warmed per node at
	// registration and on pre-warm hints (default 1).
	PrewarmCount int `json:"prewarmCount,omitempty"`
}

func resolveClass(cfg TenantConfig) (SLOClass, error) {
	name := cfg.Class
	if name == "" {
		name = "silver"
	}
	class, ok := ClassByName(name)
	if !ok {
		return SLOClass{}, fmt.Errorf("controlplane: unknown SLO class %q", name)
	}
	if cfg.RatePerSec > 0 {
		class.RatePerSec = cfg.RatePerSec
		class.Burst = 2 * cfg.RatePerSec
	}
	if cfg.Burst > 0 {
		class.Burst = cfg.Burst
	}
	return class, nil
}

// tenant is the runtime state for one registered tenant. All fields are
// guarded by the plane mutex.
type tenant struct {
	cfg   TenantConfig
	class SLOClass
	model *model.Model
	// target is the resolved latency target in seconds.
	target float64
	// keepWarm is the resolved idle window before scale-to-zero.
	keepWarm float64
	// prewarm is containers per node at registration / wake hints.
	prewarm int

	// Token bucket (refilled lazily on virtual time).
	tokens     float64
	burst      float64
	lastRefill float64

	// Scale-to-zero state.
	suspended  bool
	lastActive float64
	suspends   int
	resumes    int

	// Demand signals for the pre-warm hint, per usage window.
	rateEWMA     *ewma.EWMA
	arrivalsTick int
	consumedTick float64

	// Cumulative accounting.
	admitted   int
	shed       int
	rejected   int
	completed  int
	dropped    int
	violations int
	recorder   *metrics.Recorder
	sliceSecs  map[string]float64
	slicePros  []string // profile names in first-seen order

	// Per-second metering windows (ring of the most recent windowCap).
	windows     []Window
	windowBase  int // second index of windows[0]
	windowCount int
}

// windowCap bounds the per-tenant metering ring (10 minutes).
const windowCap = 600

func newTenant(cfg TenantConfig, class SLOClass, m *model.Model, opts Options, now float64) *tenant {
	target := cfg.TargetSeconds
	if target <= 0 {
		target = m.SLO(class.TargetMultiplier)
	}
	keepWarm := cfg.KeepWarmSeconds
	if keepWarm <= 0 {
		keepWarm = opts.KeepWarmDefault
	}
	prewarm := cfg.PrewarmCount
	if prewarm <= 0 {
		prewarm = 1
	}
	return &tenant{
		cfg:        cfg,
		class:      class,
		model:      m,
		target:     target,
		keepWarm:   keepWarm,
		prewarm:    prewarm,
		tokens:     class.Burst,
		burst:      class.Burst,
		lastRefill: now,
		lastActive: now,
		rateEWMA:   ewma.MustNew(0.3),
		recorder:   &metrics.Recorder{},
		sliceSecs:  make(map[string]float64),
	}
}

func (t *tenant) refill(now float64) {
	if t.class.RatePerSec <= 0 {
		return
	}
	dt := now - t.lastRefill
	if dt > 0 {
		t.tokens = math.Min(t.burst, t.tokens+float64(dt*t.class.RatePerSec))
	}
	t.lastRefill = now
}

func (t *tenant) addSliceSeconds(profile string, s float64) {
	if profile == "" {
		profile = "unknown"
	}
	if _, ok := t.sliceSecs[profile]; !ok {
		t.slicePros = append(t.slicePros, profile)
	}
	t.sliceSecs[profile] += s
}

// windowAt returns the metering window covering virtual time ts,
// sliding the ring forward (dropping the oldest windows) as needed.
func (t *tenant) windowAt(ts float64) *Window {
	sec := int(math.Floor(ts))
	if sec < 0 {
		sec = 0
	}
	if t.windowCount == 0 {
		t.windowBase = sec
		t.windows = append(t.windows, Window{Second: sec})
		t.windowCount = 1
		return &t.windows[0]
	}
	if sec < t.windowBase {
		// Completion attributed before the ring's horizon (can only
		// happen after the ring slid 600 s past it); account to the
		// oldest retained window.
		return &t.windows[0]
	}
	for sec >= t.windowBase+t.windowCount {
		t.windows = append(t.windows, Window{Second: t.windowBase + t.windowCount})
		t.windowCount++
		if t.windowCount > windowCap {
			t.windows = t.windows[1:]
			t.windowBase++
			t.windowCount--
		}
	}
	return &t.windows[sec-t.windowBase]
}

// Decision outcomes.
const (
	OutcomeAdmit  = "admit"
	OutcomeShed   = "shed"
	OutcomeReject = "reject"
)

// Decision reasons.
const (
	ReasonRateLimit = "rate-limit"
	ReasonBacklog   = "backlog"
)

// Decision is the admission verdict for one ingest attempt.
type Decision struct {
	// Tenant is the tenant id.
	Tenant string `json:"tenant"`
	// Outcome is "admit", "shed" (best-effort work dropped under
	// pressure), or "reject" (the HTTP layer maps this to 429).
	Outcome string `json:"outcome"`
	// Reason explains non-admit outcomes ("rate-limit" or "backlog").
	Reason string `json:"reason,omitempty"`
	// Requests is the batch size the decision covers.
	Requests int `json:"requests"`
	// PredictedDelaySeconds is the queueing-delay estimate that drove
	// the backlog check.
	PredictedDelaySeconds float64 `json:"predictedDelaySeconds"`
	// VirtualTime is the quantized virtual timestamp of the attempt.
	VirtualTime float64 `json:"virtualTime"`
}

// decide runs the admission state machine for n requests at vt:
//
//  1. Rate limit: insufficient tokens → reject ("rate-limit"), tokens
//     untouched.
//  2. Backlog: predicted queueing delay (EWMA of observed delays plus
//     backlog drain time by Little's law) above the tenant's latency
//     target → strict classes are rejected ("backlog"), best-effort
//     classes shed. Tokens are consumed anyway: the bucket meters
//     attempts that got past the rate limit, not admissions, so a
//     tenant retrying into a saturated cluster is throttled by its own
//     allowance instead of re-probing admission at full rate.
//     TestBacklogRejectionSpendsTokens pins this, and the live decision
//     fingerprint depends on it.
//  3. Otherwise admit and consume tokens.
func (p *Plane) decide(t *tenant, n int, vt float64) Decision {
	dec := Decision{Tenant: t.cfg.ID, Requests: n, VirtualTime: vt}
	t.refill(vt)
	if t.class.RatePerSec > 0 && t.tokens < float64(n) {
		dec.Outcome = OutcomeReject
		dec.Reason = ReasonRateLimit
		return dec
	}
	predicted := p.predictor.Predict(p.cluster.Backlog().Total(), p.cluster.Nodes())
	dec.PredictedDelaySeconds = predicted
	if predicted > t.target {
		if t.class.Strict {
			dec.Outcome = OutcomeReject
		} else {
			dec.Outcome = OutcomeShed
		}
		dec.Reason = ReasonBacklog
		// Spend the tokens even though nothing is admitted (step 2).
		t.consumedTick += float64(n)
		if t.class.RatePerSec > 0 {
			t.tokens -= float64(n)
		}
		return dec
	}
	dec.Outcome = OutcomeAdmit
	t.consumedTick += float64(n)
	if t.class.RatePerSec > 0 {
		t.tokens -= float64(n)
	}
	return dec
}

// fnvOffset is the FNV-1a 64-bit offset basis (the fingerprint's seed).
const fnvOffset = 14695981039346656037

// recordDecision folds a decision into the plane's running FNV-1a
// fingerprint, the cheap proof that two planes (live vs. replay) made
// byte-identical admission decisions.
func (p *Plane) recordDecision(d Decision) {
	p.decCount++
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%d|%.9g|%.9g\n",
		d.Tenant, d.Outcome, d.Reason, d.Requests, d.PredictedDelaySeconds, d.VirtualTime)
	p.decHash = p.decHash*1099511628211 ^ h.Sum64()
}

// DecisionFingerprint returns the number of admission decisions made
// and a hash over their full contents.
func (p *Plane) DecisionFingerprint() (int, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.decCount, p.decHash
}
