package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"protean/internal/obs"
)

func testOpts() Options {
	return Options{Seed: 7, Nodes: 4, KeepWarmDefault: 5}
}

func mustPlane(t *testing.T, opts Options) *Plane {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func register(t *testing.T, p *Plane, cfg TenantConfig) {
	t.Helper()
	if err := p.RegisterTenant(cfg); err != nil {
		t.Fatalf("RegisterTenant(%s): %v", cfg.ID, err)
	}
}

func TestPlaneServesAndMeters(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "acme", Model: "ResNet 18", Class: "gold"})

	for i := 0; i < 20; i++ {
		vt := 0.1 * float64(i)
		if _, err := p.IngestAt(vt, "acme", 5); err != nil {
			t.Fatalf("IngestAt: %v", err)
		}
	}
	advanceTo(t, p, 10)
	u, err := p.Usage("acme")
	if err != nil {
		t.Fatalf("Usage: %v", err)
	}
	if u.Admitted != 100 {
		t.Fatalf("admitted = %d, want 100", u.Admitted)
	}
	if u.Completed == 0 {
		t.Fatal("no completions after 10 virtual seconds")
	}
	if u.GPUSeconds <= 0 || u.CostDollars <= 0 {
		t.Fatalf("metering empty: gpuSeconds=%v cost=%v", u.GPUSeconds, u.CostDollars)
	}
	if len(u.SliceSecondsByProfile) == 0 {
		t.Fatal("no per-profile slice seconds")
	}
	if len(u.RecentWindows) == 0 {
		t.Fatal("no metering windows")
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	final := sum.Tenants[0]
	if final.Completed != final.Admitted-final.Dropped {
		t.Fatalf("drained plane unbalanced: admitted=%d completed=%d dropped=%d",
			final.Admitted, final.Completed, final.Dropped)
	}
	if _, err := p.IngestAt(11, "acme", 1); err == nil {
		t.Fatal("ingest after drain should fail")
	}
}

func TestRateLimitRejects(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "tiny", Model: "MobileNet", Class: "bronze", RatePerSec: 1, Burst: 2})

	d1, err := p.IngestAt(0.1, "tiny", 2)
	if err != nil || d1.Outcome != OutcomeAdmit {
		t.Fatalf("first ingest: %+v, %v", d1, err)
	}
	d2, err := p.IngestAt(0.1, "tiny", 2)
	if err != nil {
		t.Fatalf("second ingest: %v", err)
	}
	if d2.Outcome != OutcomeReject || d2.Reason != ReasonRateLimit {
		t.Fatalf("bucket empty but got %+v", d2)
	}
	// After 2 s the bucket refilled.
	d3, err := p.IngestAt(2.2, "tiny", 2)
	if err != nil || d3.Outcome != OutcomeAdmit {
		t.Fatalf("refilled ingest: %+v, %v", d3, err)
	}
}

// TestBacklogRejectionSpendsTokens pins that a backlog rejection spends
// the tenant's rate-limit tokens just as an admission does (see decide):
// after two backlog rejections drain a burst of 4, the third attempt is
// refused by the rate limit although nothing was admitted.
func TestBacklogRejectionSpendsTokens(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "load", Model: "ResNet 50", Class: "bronze"})
	register(t, p, TenantConfig{ID: "tight", Model: "ResNet 50", Class: "gold",
		TargetSeconds: 1e-6, RatePerSec: 0.001, Burst: 4})
	// Build a backlog whose completions teach the predictor a queueing
	// delay far above tight's target.
	for i := 1; i <= 20; i++ {
		if _, err := p.IngestAt(float64(i)*0.05, "load", 50); err != nil {
			t.Fatalf("load ingest: %v", err)
		}
	}
	var got []Decision
	for i := 0; i < 3; i++ {
		d, err := p.IngestAt(1.5, "tight", 2)
		if err != nil {
			t.Fatalf("tight ingest: %v", err)
		}
		got = append(got, d)
	}
	for i, want := range []string{ReasonBacklog, ReasonBacklog, ReasonRateLimit} {
		if got[i].Outcome != OutcomeReject || got[i].Reason != want {
			t.Fatalf("attempt %d: %+v, want a %s rejection", i+1, got[i], want)
		}
	}
}

func TestScaleToZeroAndWake(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "idler", Model: "BERT", Class: "silver", KeepWarmSeconds: 2})

	if _, err := p.IngestAt(0.1, "idler", 3); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// Idle far past the keep-warm window.
	advanceTo(t, p, 20)
	u, err := p.Usage("idler")
	if err != nil {
		t.Fatalf("Usage: %v", err)
	}
	if !u.Suspended || u.Suspends != 1 {
		t.Fatalf("tenant not suspended after idle window: %+v", u)
	}
	if ev := p.Events("tenant-suspend"); len(ev) != 1 {
		t.Fatalf("want 1 suspend event, got %d", len(ev))
	} else if ev[0].Requests == 0 {
		t.Fatal("suspend reclaimed no warm containers")
	}
	// A new request wakes the tenant through the cold-start path.
	if _, err := p.IngestAt(21, "idler", 1); err != nil {
		t.Fatalf("wake ingest: %v", err)
	}
	u, err = p.Usage("idler")
	if err != nil {
		t.Fatalf("Usage: %v", err)
	}
	if u.Suspended || u.Resumes != 1 {
		t.Fatalf("tenant not resumed: %+v", u)
	}
	if ev := p.Events("tenant-resume"); len(ev) != 1 || ev[0].Model != "request" {
		t.Fatalf("want 1 resume-by-request event, got %+v", ev)
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Registration pre-warmed the pool, so the initial ingest was warm;
	// the post-suspend wake-up is the one forced cold start.
	if sum.ColdStarts < 1 {
		t.Fatalf("wake-up should pay a fresh cold start: coldStarts=%d", sum.ColdStarts)
	}
}

// scriptedRun drives a deterministic multi-tenant session (bursty gold
// traffic, steady silver, an idle bronze tenant that suspends) and
// returns the plane mid-flight.
func scriptedRun(t *testing.T, opts Options, withSyncs bool) *Plane {
	t.Helper()
	p := mustPlane(t, opts)
	register(t, p, TenantConfig{ID: "gold-burst", Model: "ResNet 18", Class: "gold"})
	register(t, p, TenantConfig{ID: "silver-steady", Model: "BERT", Class: "silver"})
	register(t, p, TenantConfig{ID: "bronze-idle", Model: "MobileNet", Class: "bronze", KeepWarmSeconds: 3})

	if _, err := p.IngestAt(0.2, "bronze-idle", 4); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for i := 0; i < 60; i++ {
		vt := 0.25 * float64(i)
		n := 3
		if i%10 < 3 {
			n = 12 // burst
		}
		if _, err := p.IngestAt(vt, "gold-burst", n); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		if i%2 == 0 {
			if _, err := p.IngestAt(vt, "silver-steady", 2); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		// Unlogged intermediate reads must be invisible to replay.
		if withSyncs && i%7 == 0 {
			if _, err := p.UsageAll(); err != nil {
				t.Fatalf("UsageAll: %v", err)
			}
		}
	}
	advanceTo(t, p, 16)
	return p
}

// rollups renders a fixed-format, byte-stable usage rollup for every
// tenant plus the plane-wide decision fingerprint: the artifact the
// determinism tests compare across shard counts and replays.
func rollups(t *testing.T, p *Plane) string {
	t.Helper()
	usages, err := p.UsageAll()
	if err != nil {
		t.Fatalf("UsageAll: %v", err)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	count, hash := p.DecisionFingerprint()
	var b strings.Builder
	fmt.Fprintf(&b, "decisions=%d fingerprint=%016x\n", count, hash)
	for _, u := range usages {
		fmt.Fprintf(&b, "tenant=%s class=%s model=%s admitted=%d shed=%d rejected=%d completed=%d dropped=%d violations=%d suspends=%d resumes=%d",
			u.Tenant, u.Class, u.Model, u.Admitted, u.Shed, u.Rejected, u.Completed, u.Dropped, u.SLOViolations, u.Suspends, u.Resumes)
		fmt.Fprintf(&b, " attainment=%s p50=%s p99=%s gpuSeconds=%s cost=%s",
			g(u.SLOAttainment), g(u.P50Millis), g(u.P99Millis), g(u.GPUSeconds), g(u.CostDollars))
		profs := make([]string, 0, len(u.SliceSecondsByProfile))
		for prof := range u.SliceSecondsByProfile {
			profs = append(profs, prof)
		}
		sort.Strings(profs)
		for _, prof := range profs {
			fmt.Fprintf(&b, " slice[%s]=%s", prof, g(u.SliceSecondsByProfile[prof]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// advanceTo moves the plane's virtual clock to vt, as a manual-mode
// client would between ingests.
func advanceTo(t *testing.T, p *Plane, vt float64) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.advanceLocked(p.quantize(vt)); err != nil {
		t.Fatalf("advance to %v: %v", vt, err)
	}
}

// TestReplayDeterminismAcrossShards is the control plane's determinism
// contract: replaying a recorded ingest log reproduces the live run's
// admission decisions and usage rollups byte-for-byte, even though the
// live run interleaved unlogged advances (usage reads) that the replay
// never saw.
func TestReplayDeterminismAcrossShards(t *testing.T) {
	live := scriptedRun(t, testOpts(), true)
	if _, err := live.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The log now ends with the drain snapshot, pinning the replay's
	// final advance point.
	log := live.Log()
	want := rollups(t, live)
	if !strings.Contains(want, "tenant=bronze-idle") || !strings.Contains(want, "suspends=1") {
		t.Fatalf("scripted run did not exercise suspend:\n%s", want)
	}

	rp, _, err := Replay(testOpts(), log)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := rollups(t, rp); got != want {
		t.Errorf("replay rollups differ from live run:\n--- live ---\n%s--- replay ---\n%s", want, got)
	}
}

// TestReplayWallClockLongIdle replays wall-clock logs whose logged
// operations lie hours apart: the clock moves by unlogged Syncs, by
// plain idle time before an ingest, and before the drain. Replay bounds
// each entry to MaxIngestSpan past the one before it, so the plane must
// bridge such gaps in its own log.
func TestReplayWallClockLongIdle(t *testing.T) {
	for name, script := range map[string]func(p *Plane, wall *float64) error{
		"sync then ingest": func(p *Plane, wall *float64) error {
			for _, w := range []float64{1000, 4000, 7200} {
				*wall = w
				if err := p.Sync(); err != nil {
					return err
				}
			}
			_, err := p.Ingest("idle", 3)
			return err
		},
		"idle then ingest": func(p *Plane, wall *float64) error {
			*wall = 7200.5
			if _, err := p.Ingest("idle", 2); err != nil {
				return err
			}
			*wall = 7201
			_, err := p.Ingest("idle", 1)
			return err
		},
		"idle then drain": func(p *Plane, wall *float64) error {
			if _, err := p.Ingest("idle", 2); err != nil {
				return err
			}
			*wall = 9000
			return p.Sync()
		},
	} {
		t.Run(name, func(t *testing.T) {
			wall := 0.0
			opts := testOpts()
			opts.WallNow = func() float64 { return wall }
			live := mustPlane(t, opts)
			register(t, live, TenantConfig{ID: "idle", Model: "ResNet 18", Class: "gold"})
			if err := script(live, &wall); err != nil {
				t.Fatalf("script: %v", err)
			}
			if _, err := live.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			log := live.Log()
			prev := 0.0
			for i, e := range log {
				if e.VT > prev+MaxIngestSpan {
					t.Fatalf("log entry %d at vt %v is more than %v s past %v:\n%+v", i, e.VT, MaxIngestSpan, prev, log)
				}
				prev = e.VT
			}
			rp, _, err := Replay(testOpts(), log)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			wantN, wantHash := live.DecisionFingerprint()
			gotN, gotHash := rp.DecisionFingerprint()
			if wantN == 0 || gotN != wantN || gotHash != wantHash {
				t.Errorf("replay fingerprint (%d, %x), live (%d, %x)", gotN, gotHash, wantN, wantHash)
			}
			if got, want := rollups(t, rp), rollups(t, live); got != want {
				t.Errorf("replay rollups differ:\n--- live ---\n%s--- replay ---\n%s", want, got)
			}
		})
	}
}

// TestIngestOverCapIsRefused: the plane refuses an ingest Replay would
// refuse, so every log it writes replays.
func TestIngestOverCapIsRefused(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "big", Model: "ResNet 18", Class: "gold"})
	if _, err := p.IngestAt(0.1, "big", MaxIngestN+1); err == nil {
		t.Fatal("ingest over MaxIngestN accepted")
	}
	if log := p.Log(); len(log) != 1 || log[0].Op != OpTenant {
		t.Fatalf("refused ingest was logged: %+v", log)
	}
}

func TestRegistryWiring(t *testing.T) {
	reg := obs.NewRegistry()
	opts := testOpts()
	opts.Registry = reg
	p := mustPlane(t, opts)
	register(t, p, TenantConfig{ID: "m", Model: "ResNet 18", Class: "gold"})
	if _, err := p.IngestAt(0.1, "m", 4); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	advanceTo(t, p, 5)
	if _, err := p.Usage("m"); err != nil {
		t.Fatalf("Usage: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`proteand_tenant_requests_total{tenant="m",decision="admit"} 4`,
		`proteand_tenant_suspended{tenant="m"} 0`,
		`proteand_tenant_slice_seconds_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "rt", Model: "MobileNet"})
	if _, err := p.IngestAt(0.5, "rt", 3); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range p.Log() {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("encode log: %v", err)
		}
	}
	entries, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(entries) != 2 || entries[0].Op != OpTenant || entries[1].Op != OpIngest || entries[1].N != 3 {
		t.Fatalf("round-tripped log = %+v", entries)
	}
}

func TestMarketPlaneServesAndRollsUp(t *testing.T) {
	opts := testOpts()
	opts.Market = true
	p := mustPlane(t, opts)
	register(t, p, TenantConfig{ID: "acme", Model: "ResNet 18", Class: "gold"})

	quotes, err := p.MarketQuotes()
	if err != nil {
		t.Fatalf("MarketQuotes: %v", err)
	}
	if len(quotes) != 3 {
		t.Fatalf("quotes = %d providers, want 3 (Table 3 catalog)", len(quotes))
	}
	for _, q := range quotes {
		if q.SpotHourly <= 0 || q.SpotHourly > q.OnDemandHourly {
			t.Errorf("%s: spot $%v outside (0, on-demand $%v]", q.Provider, q.SpotHourly, q.OnDemandHourly)
		}
	}

	for i := 0; i < 20; i++ {
		if _, err := p.IngestAt(0.5*float64(i), "acme", 5); err != nil {
			t.Fatalf("IngestAt: %v", err)
		}
	}
	advanceTo(t, p, 60)
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if sum.Market == nil {
		t.Fatal("market plane drained without a market rollup")
	}
	if sum.Market.TotalDollars <= 0 {
		t.Errorf("TotalDollars = %v, want > 0 (leased workers accrue)", sum.Market.TotalDollars)
	}
	if sum.Market.Stats.Binds < opts.Nodes {
		t.Errorf("Binds = %d, want >= %d (one lease per worker)", sum.Market.Stats.Binds, opts.Nodes)
	}
	if sum.Tenants[0].Completed == 0 {
		t.Error("market plane completed no work")
	}
	// Quotes remain readable after drain (frozen at drain time).
	if _, err := p.MarketQuotes(); err != nil {
		t.Fatalf("MarketQuotes after drain: %v", err)
	}
}

func TestMarketOffPlaneHasNoMarketSurface(t *testing.T) {
	p := mustPlane(t, testOpts())
	quotes, err := p.MarketQuotes()
	if err != nil {
		t.Fatalf("MarketQuotes: %v", err)
	}
	if quotes != nil {
		t.Fatalf("quotes = %v, want nil without Options.Market", quotes)
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if sum.Market != nil {
		t.Fatal("market rollup present on a market-off plane")
	}
}
