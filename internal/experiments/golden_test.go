package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"protean/internal/chaos"
	"protean/internal/obs"
)

// fig2QuickGolden pins the SHA-256 of the fig2 quick-mode text report at
// seed 1. The simulation promises byte-identical output for a given seed
// across refactors — this hash is the regression tripwire for that
// promise. If it fires, the change altered simulation semantics (event
// ordering, float evaluation order, table formatting): either the change
// is a bug, or it is an intentional semantic change and the new hash
// must be re-pinned in the same commit with an explanation.
//
// Re-pinned for the sharded event loop: the vm fleet, service jitter,
// and chaos draws moved from the shared root stream onto derived child
// streams (sim.Stream.Child), arrivals and batching moved to a gateway
// lane, per-node work moved to node lanes with lane-first tie ordering,
// and sealed batches now dispatch at the next dispatch-quantum barrier
// instead of instantly at seal time. Every drawn value and some event
// interleavings changed, so all experiment numbers shifted. The
// contract since is that this hash, and every report and trace, is the
// same at any -parallel (see the parallel-identity tests below).
const fig2QuickGolden = "f821b5ce18cfe6c782f34e0a16217551c130b5d2a500c6d6428c78de00253b59"

func TestFig2QuickGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-mode experiment; skipped in -short")
	}
	if got := fig2QuickHash(t, Params{Quick: true, Seed: 1, Parallel: 1}); got != fig2QuickGolden {
		t.Errorf("fig2 quick report hash = %s, want %s\n"+
			"The report bytes changed. If this is intentional, re-pin the"+
			" golden hash in the same commit and explain the semantic change.", got, fig2QuickGolden)
	}
}

// scaleQuickGolden pins the SHA-256 of `protean-bench -run scale -quick
// -seed 1`: the rendered report plus the blank line the CLI prints after
// it, the bytes CI's scale smoke pins. It is the one pinned report whose
// recorders run in sketch mode.
const scaleQuickGolden = "32db85e39c55cb719f3a5624c389dc09b0bae473fd004bb78ec7fe8416ec8326"

func TestScaleQuickGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick scale sweep; skipped in -short")
	}
	sum := sha256.Sum256([]byte(renderText(t, "scale", Params{Quick: true, Seed: 1, Parallel: 1}) + "\n"))
	if got := hex.EncodeToString(sum[:]); got != scaleQuickGolden {
		t.Errorf("scale quick report hash = %s, want %s\n"+
			"The report bytes changed. If this is intentional, re-pin the"+
			" golden hash here and in CI in the same commit and explain the semantic change.", got, scaleQuickGolden)
	}
}

// quickGridGolden pins the SHA-256 of `protean-bench -run all -quick
// -seed 1`: every experiment's text report at the CLI's default 8
// nodes, 60 s and 15 s warmup, each followed by the blank line the CLI
// prints after it. perfbench's paper-scale smoke pins the same bytes. The fig2 and scale pins above cover two reports; this
// one covers every reader, whatever level its runs record at.
const quickGridGolden = "6ff46c4eed7ef16dca169b7aef5d27dcce1df135675cb8eaeb2c65593d59f6a4"

func TestQuickGridGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick-mode experiment; skipped in -short")
	}
	var sb strings.Builder
	for _, e := range Registry() {
		sb.WriteString(renderText(t, e.ID, Params{Nodes: 8, Duration: 60, Warmup: 15, Quick: true, Seed: 1, Parallel: 1}))
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(sum[:]); got != quickGridGolden {
		t.Errorf("quick grid hash = %s, want %s\n"+
			"The report bytes changed. If this is intentional, re-pin the"+
			" golden hash here, in CI and in perfbench in the same commit and explain the semantic change.", got, quickGridGolden)
	}
}

// traceGoldens pins the SHA-256 of the Chrome and JSONL trace exports
// of real quick-mode runs at seed 1. Unlike internal/obs's hand-built
// fixture, these run the simulator, so they pin the engine's event
// order: which events fire, at what time, and in what order events of
// one instant reach the tracer. The chaos run adds fault, retry and
// repair events on node lanes to fig2's batch and dispatch events. fig9
// pins the VM lease and notice events of the Table 3 tariff fleet, and
// market those of the marketplace-backed fleet with its lease requests
// and binds.
var traceGoldens = []struct{ id, chrome, jsonl string }{
	{"fig2",
		"15243650ba709d15d0ae47cf67217e3def5665ac679119fd1695ff65b0e19b30",
		"247d4f6f268d10b118a22e77ece208702baf7dcfaa3a9750917a0053152206b0"},
	{"chaos",
		"73cffe39060327d68f8ee4b18ea1259364fd4130a345cae80fcc45662db75d49",
		"46898c2e6ec6cf2c55dbc2a9e68364ebb4ae4d17cdccfe3dc4214f99fbd95382"},
	{"fig9",
		"0c40b215bed3aba4d9f94802ec5555b1d130c828ea4357015ae32dafc9cdeace",
		"1c812c7984e122e42df2bb5dfc337e7f1d0f6ddbb21dbcc4e160d6247b7032ae"},
	{"market",
		"dca115df222e1f262d7d9a6be0b67850179ed607736f8351fa4ab1a02ca45dcd",
		"266dc36824c1eb5e99d053feeb38805cedf543351d7983631a3fa9c769c6a58b"},
}

func TestTraceGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig2, chaos, fig9 and market traced; skipped in -short")
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, g := range traceGoldens {
		got := renderTraced(t, g.id, Params{Quick: true, Seed: 1, Parallel: 1})
		if h := hash(got.chrome); h != g.chrome {
			t.Errorf("%s chrome trace hash = %s, want %s", g.id, h, g.chrome)
		}
		if h := hash(got.jsonl); h != g.jsonl {
			t.Errorf("%s jsonl trace hash = %s, want %s", g.id, h, g.jsonl)
		}
	}
}

// TestChaosDisabledIsByteIdentical is the chaos-off identity property:
// a Config with Enabled false — even one carrying non-zero fault rates —
// must leave the run bit-for-bit identical to a build without the chaos
// subsystem, because the disabled path draws zero random numbers and
// schedules zero timers. The pre-PR fig2 golden hash is the witness.
func TestChaosDisabledIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-mode experiment; skipped in -short")
	}
	off := chaos.DefaultConfig()
	off.Enabled = false // rates stay non-zero: only the master switch is off
	p := Params{Quick: true, Seed: 1, Parallel: 1, Chaos: off}
	if got := fig2QuickHash(t, p); got != fig2QuickGolden {
		t.Errorf("fig2 hash with chaos disabled = %s, want pre-chaos golden %s\n"+
			"A disabled injector perturbed the simulation (RNG draw or timer leak).",
			got, fig2QuickGolden)
	}
}

// TestChaosReportParallelIdentity: the chaos fault sweep renders
// byte-identically at -parallel 1 and -parallel 4, i.e. the fault
// schedule is a pure function of the seed, independent of worker
// scheduling.
func TestChaosReportParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep twice; skipped in -short")
	}
	render := func(parallel int) string {
		e, ok := ByID("chaos")
		if !ok {
			t.Fatal("chaos experiment not registered")
		}
		report, err := RunReplicated(e, Params{Quick: true, Seed: 1, Parallel: parallel}, 1)
		if err != nil {
			t.Fatalf("run chaos (parallel %d): %v", parallel, err)
		}
		var sb strings.Builder
		if err := report.RenderAs(&sb, FormatText); err != nil {
			t.Fatalf("render: %v", err)
		}
		return sb.String()
	}
	seq, par := render(1), render(4)
	if seq != par {
		t.Error("chaos report differs between -parallel 1 and -parallel 4")
	}
	// Identity would be vacuous if the sweep injected nothing; the
	// straggler columns are non-zero at every non-zero scale, so the
	// rendered report must contain at least one fault counter > 0.
	if !strings.Contains(seq, "stragglers") {
		t.Error("chaos report missing the resilience-counters table")
	}
}

// TestFig2ColdStartsParallelIdentity extends the determinism
// contract to the scheme and scaling-policy runs that fig2 and
// coldstarts fan out through RunScenarios (fig2's five runs share one
// read-only trace): reports and traces are byte-identical at -parallel
// 1 vs 4.
func TestFig2ColdStartsParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig2 and coldstarts twice each; skipped in -short")
	}
	for _, id := range []string{"fig2", "coldstarts"} {
		want := renderTraced(t, id, Params{Quick: true, Seed: 1, Parallel: 1})
		got := renderTraced(t, id, Params{Quick: true, Seed: 1, Parallel: 4})
		want.diff(t, got, id+": -parallel 1 vs -parallel 4")
	}
}

// TestChaosReachesFig2AndColdStarts: Params.Chaos must reach every run
// of fig2 and coldstarts, so enabling the reference fault mix changes
// their reports.
func TestChaosReachesFig2AndColdStarts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig2 and coldstarts twice each; skipped in -short")
	}
	for _, id := range []string{"fig2", "coldstarts"} {
		off := renderText(t, id, Params{Quick: true, Seed: 1, Parallel: 1})
		on := renderText(t, id, Params{Quick: true, Seed: 1, Parallel: 1, Chaos: chaos.DefaultConfig()})
		if on == off {
			t.Errorf("%s: report with chaos enabled is identical to chaos off; Params.Chaos never reached its runs", id)
		}
	}
}

// tracedRender is one experiment's text report plus its merged traces.
type tracedRender struct {
	report        string
	chrome, jsonl []byte
}

// diff reports every part of got that differs from r.
func (r tracedRender) diff(t *testing.T, got tracedRender, what string) {
	t.Helper()
	if got.report != r.report {
		t.Errorf("%s: report differs", what)
	}
	if !bytes.Equal(got.chrome, r.chrome) {
		t.Errorf("%s: chrome trace differs", what)
	}
	if !bytes.Equal(got.jsonl, r.jsonl) {
		t.Errorf("%s: jsonl trace differs", what)
	}
}

// renderTraced runs experiment id under p with a fresh TraceSet and
// returns the text report and both trace exports.
func renderTraced(t *testing.T, id string, p Params) tracedRender {
	t.Helper()
	p.Trace = obs.NewTraceSet()
	out := tracedRender{report: renderText(t, id, p)}
	if traceEvents(p.Trace) == 0 {
		t.Fatalf("%s seed %d: no trace events collected", id, p.Seed)
	}
	var cb, jb bytes.Buffer
	if err := obs.WriteChrome(&cb, p.Trace.Traces()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&jb, p.Trace.Traces()); err != nil {
		t.Fatal(err)
	}
	out.chrome, out.jsonl = cb.Bytes(), jb.Bytes()
	return out
}

// renderText runs experiment id under p and renders its text report.
func renderText(t *testing.T, id string, p Params) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s experiment not registered", id)
	}
	report, err := RunReplicated(e, p, 1)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	var sb strings.Builder
	if err := report.RenderAs(&sb, FormatText); err != nil {
		t.Fatalf("render: %v", err)
	}
	return sb.String()
}

// fig2QuickHash runs fig2 under p and hashes the rendered text report.
func fig2QuickHash(t *testing.T, p Params) string {
	t.Helper()
	sum := sha256.Sum256([]byte(renderText(t, "fig2", p)))
	return hex.EncodeToString(sum[:])
}
