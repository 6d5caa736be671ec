package controlplane

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the live rollup golden file")

// TestLiveRollupsGolden pins a faulty market plane's usage rollups
// byte for byte: decisions and their fingerprint, per-tenant counts,
// latency percentiles, slice seconds and cost. The script serves four
// tenants on four nodes through admissions, best-effort sheds, backlog
// and rate-limit rejections, dropped work and scale-to-zero.
func TestLiveRollupsGolden(t *testing.T) {
	p := mustPlane(t, Options{Seed: 3, Nodes: 4, KeepWarmDefault: 4, ChaosScale: 0.5, Market: true})
	register(t, p, TenantConfig{ID: "gold", Model: "ResNet 18", Class: "gold"})
	register(t, p, TenantConfig{ID: "silver", Model: "BERT", Class: "silver", RatePerSec: 40, Burst: 60})
	register(t, p, TenantConfig{ID: "bronze", Model: "ResNet 50", Class: "bronze", KeepWarmSeconds: 2})
	register(t, p, TenantConfig{ID: "tight", Model: "ResNet 50", Class: "gold",
		TargetSeconds: 1e-3, RatePerSec: 5, Burst: 20})

	reasons := map[string]int{}
	ingest := func(vt float64, id string, n int) {
		t.Helper()
		d, err := p.IngestAt(vt, id, n)
		if err != nil {
			t.Fatalf("IngestAt(%v, %s, %d): %v", vt, id, n, err)
		}
		reasons[d.Outcome+"/"+d.Reason]++
	}
	for i := 0; i < 120; i++ {
		vt := 0.1 * float64(i)
		n := 4
		if i%20 < 4 {
			n = 12 // burst
		}
		ingest(vt, "gold", n)
		if i%3 == 0 {
			ingest(vt, "silver", 6)
		}
		if i < 60 {
			ingest(vt, "bronze", 16)
		}
		if i%10 == 5 {
			ingest(vt, "tight", 4)
		}
	}
	// Bronze and tight idle into scale-to-zero; gold and silver wake
	// from it later.
	advanceTo(t, p, 30)
	for i := 0; i < 20; i++ {
		vt := 30 + 0.25*float64(i)
		ingest(vt, "gold", 3)
		ingest(vt, "silver", 2)
	}
	ingest(36, "bronze", 8)
	advanceTo(t, p, 45)
	if _, err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, want := range []string{
		OutcomeAdmit + "/",
		OutcomeShed + "/" + ReasonBacklog,
		OutcomeReject + "/" + ReasonBacklog,
		OutcomeReject + "/" + ReasonRateLimit,
	} {
		if reasons[want] == 0 {
			t.Errorf("script made no %s decision: %v", want, reasons)
		}
	}

	got := rollups(t, p)
	path := filepath.Join("testdata", "live_rollups.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rollups differ from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
