package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"protean/internal/cluster"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/obs"
)

// whole is the identity reader: it keeps a run's entire result.
func whole(res *cluster.Result) *cluster.Result { return res }

func TestWorkersResolution(t *testing.T) {
	if w := (Params{Parallel: 1}).workers(); w != 1 {
		t.Errorf("Parallel=1 → %d workers, want 1", w)
	}
	if w := (Params{Parallel: 0}).workers(); w < 1 {
		t.Errorf("Parallel=0 → %d workers, want >= 1", w)
	}
	if w := (Params{Parallel: 7}).workers(); w != 7 {
		t.Errorf("Parallel=7 → %d workers, want 7", w)
	}
}

func TestRunScenariosParallelMatchesSequential(t *testing.T) {
	schemes := PrimarySchemes()
	mk := func() []Scenario {
		var scs []Scenario
		for _, m := range []string{"ResNet 50", "ShuffleNet V2"} {
			for _, sch := range schemes {
				scs = append(scs, Scenario{
					Label:  m + "/" + sch.Name,
					Strict: model.MustByName(m),
					Policy: sch.Factory,
				})
			}
		}
		return scs
	}
	p := quickParams()
	p.Parallel = 1
	seq, err := RunScenarios(p, mk(), whole)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	p.Parallel = 6
	par, err := RunScenarios(p, mk(), whole)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, err := json.Marshal(seq[i].Recorder.Summarize())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(par[i].Recorder.Summarize())
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("scenario %d diverged:\n seq: %s\n par: %s", i, a, b)
		}
	}
}

// TestRunScenariosReadsEachRunOnce: read sees every successful run
// exactly once, its digests come back indexed like scs whatever the
// worker count, and a run that fails is never read.
func TestRunScenariosReadsEachRunOnce(t *testing.T) {
	models := []string{"ResNet 50", "ShuffleNet V2", "VGG 19", "ALBERT"}
	mk := func() []Scenario {
		scs := make([]Scenario, len(models))
		for i, m := range models {
			scs[i] = Scenario{Label: m, Strict: model.MustByName(m), Policy: PrimarySchemes()[0].Factory}
		}
		return scs
	}
	for _, parallel := range []int{1, 4} {
		var mu sync.Mutex
		var read []string
		// strictModel names the run's strict model, the only model its
		// recorder holds strict samples of.
		strictModel := func(res *cluster.Result) string {
			name := ""
			for _, st := range res.Recorder.Snapshot() {
				if st.StrictRequests > 0 {
					name = st.Model
				}
			}
			mu.Lock()
			read = append(read, name)
			mu.Unlock()
			return name
		}
		p := quickParams()
		p.Parallel = parallel
		got, err := RunScenarios(p, mk(), strictModel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if !slices.Equal(got, models) {
			t.Errorf("parallel=%d: digests %q, want %q", parallel, got, models)
		}
		want := slices.Clone(models)
		slices.Sort(want)
		slices.Sort(read)
		if !slices.Equal(read, want) {
			t.Errorf("parallel=%d: read %q, want each of %q once", parallel, read, want)
		}

		read = nil
		scs := mk()
		scs[1].Policy = nil
		if _, err := RunScenarios(p, scs, strictModel); err == nil || !strings.Contains(err.Error(), models[1]) {
			t.Fatalf("parallel=%d: error %v does not name the failing %s", parallel, err, models[1])
		}
		if len(read) != len(models)-1 || slices.Contains(read, models[1]) {
			t.Errorf("parallel=%d: with %s failing, read %q", parallel, models[1], read)
		}
	}
}

// traceEvents counts the events collected across every run of ts.
func traceEvents(ts *obs.TraceSet) int {
	n := 0
	for _, tr := range ts.Traces() {
		n += len(tr.Events)
	}
	return n
}

// TestRunScenariosTraceByteIdentical is the trace half of the parallel
// determinism contract: with a TraceSet attached, the merged Chrome and
// JSONL exports must be byte-identical whether the scenarios ran
// sequentially or across a worker pool.
func TestRunScenariosTraceByteIdentical(t *testing.T) {
	schemes := PrimarySchemes()
	mk := func() []Scenario {
		var scs []Scenario
		for _, sch := range schemes {
			scs = append(scs, Scenario{
				Label:  "ResNet 50/" + sch.Name,
				Strict: model.MustByName("ResNet 50"),
				Policy: sch.Factory,
			})
		}
		return scs
	}
	export := func(parallel int) (chrome, jsonl []byte) {
		t.Helper()
		p := quickParams()
		p.Parallel = parallel
		p.Trace = obs.NewTraceSet()
		if _, err := RunScenarios(p, mk(), slo); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if traceEvents(p.Trace) == 0 {
			t.Fatalf("parallel=%d: no events collected", parallel)
		}
		var cb, jb bytes.Buffer
		if err := obs.WriteChrome(&cb, p.Trace.Traces()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(&jb, p.Trace.Traces()); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), jb.Bytes()
	}
	seqChrome, seqJSONL := export(1)
	parChrome, parJSONL := export(6)
	if !bytes.Equal(seqChrome, parChrome) {
		t.Error("chrome trace differs between sequential and parallel runs")
	}
	if !bytes.Equal(seqJSONL, parJSONL) {
		t.Error("jsonl trace differs between sequential and parallel runs")
	}
}

// TestTracingDoesNotChangeResults: attaching a collector must be a pure
// observation — simulation outcomes stay identical with and without it.
func TestTracingDoesNotChangeResults(t *testing.T) {
	sc := func() Scenario {
		return Scenario{
			Strict: model.MustByName("ResNet 50"),
			Policy: PrimarySchemes()[0].Factory,
		}
	}
	p := quickParams()
	plain, err := RunScenario(p, sc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunScenario(p, sc(), obs.NewCollector("traced"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(plain.Recorder.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(traced.Recorder.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("tracing changed the result:\n plain:  %s\n traced: %s", a, b)
	}
}

func TestRunScenariosErrorUsesLabelAndIndexOrder(t *testing.T) {
	// Two broken scenarios (no policy): the first by index must win
	// deterministically, labelled when a label is present.
	scs := []Scenario{
		{Strict: model.MustByName("ResNet 50"), Policy: PrimarySchemes()[0].Factory},
		{Label: "broken-a", Strict: model.MustByName("ResNet 50")},
		{Label: "broken-b", Strict: model.MustByName("ResNet 50")},
	}
	p := quickParams()
	p.Parallel = 4
	_, err := RunScenarios(p, scs, slo)
	if err == nil {
		t.Fatal("scenario without policy accepted")
	}
	if !strings.Contains(err.Error(), "broken-a") {
		t.Errorf("error %q does not name the first failing scenario", err)
	}
	// Unlabelled failures fall back to the index.
	_, err = RunScenarios(p, []Scenario{{Strict: model.MustByName("ResNet 50")}}, slo)
	if err == nil || !strings.Contains(err.Error(), "scenario 0") {
		t.Errorf("error %q does not fall back to the scenario index", err)
	}
}

func TestSubSeed(t *testing.T) {
	if SubSeed(42, 0) != 42 {
		t.Errorf("replication 0 must keep the base seed, got %d", SubSeed(42, 0))
	}
	seen := map[int64]bool{}
	for base := int64(1); base <= 4; base++ {
		for i := 0; i < 16; i++ {
			s := SubSeed(base, i)
			if seen[s] {
				t.Fatalf("duplicate sub-seed %d (base %d, i %d)", s, base, i)
			}
			seen[s] = true
		}
	}
	// Neighbouring bases must not share shifted sequences.
	if SubSeed(1, 2) == SubSeed(2, 1) {
		t.Error("sub-seed collides across neighbouring bases")
	}
}

// TestParseCell pins the strings a report reader parses: each kind's
// rendering of one run's value, built from the typed value rather than
// read back from text.
func TestParseCell(t *testing.T) {
	tests := []struct {
		name string
		c    Cell
		want string
	}{
		{"percent", pct(0.9321), "93.21%"},
		{"millis", ms(0.0125), "12.5ms"},
		{"dollars", dollars(3.2, 2), "$3.20"},
		{"fixed", fixed(0.5, 3), "0.500"},
		{"signed", signed(-0.75), "-0.75"},
		{"signed positive", signed(1.25), "+1.25"},
		{"count", count(17), "17"},
		{"count uint64", count(uint64(19)), "19"},
		{"p-value", pvalue(3.1e-5), "3.10e-05"},
		{"p-value underflow", pvalue(0), "<1e-300"},
		{"text", text("n/a"), "n/a"},
		{"empty text", text(""), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
			if tt.c.reps != 0 {
				t.Errorf("one run's cell has reps %d, want 0", tt.c.reps)
			}
		})
	}
}

// TestAggregateCell pins each kind's replicated mean and which cells
// keep replication 0's value.
func TestAggregateCell(t *testing.T) {
	tests := []struct {
		name string
		reps []Cell // replication 0 first
		want string // the replicated cell
	}{
		{"percent", []Cell{pct(0.90), pct(0.92), pct(0.94)}, "92.00% ± 2.26%"},
		{"millis", []Cell{ms(0.0125), ms(0.0135)}, "13.0ms ± 1.0ms"},
		{"dollars", []Cell{dollars(1, 2), dollars(3, 2)}, "$2.00 ± 1.96"},
		{"fixed", []Cell{fixed(0.5, 3), fixed(0.75, 3)}, "0.625 ± 0.245"},
		{"signed", []Cell{signed(-0.75), signed(1.25)}, "+0.25 ± 1.96"},
		{"count", []Cell{count(17), count(uint64(19))}, "18 ± 2"},
		{"p-value", []Cell{pvalue(3.1e-5), pvalue(0.2)}, "3.10e-05"},
		{"p-value underflow", []Cell{pvalue(0), pvalue(1e-9)}, "<1e-300"},
		{"text", []Cell{text("PROTEAN"), text("GPUlet")}, "PROTEAN"},
		{"mixed kinds", []Cell{ms(0.001), pct(0.02)}, "1.0ms"},
		{"mixed precision", []Cell{fixed(1, 2), fixed(1, 3)}, "1.00"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			agg := aggregate(tt.reps)
			if got := agg.String(); got != tt.want {
				t.Errorf("aggregate = %q, want %q", got, tt.want)
			}
			// -json and the API encode a cell as its rendered string.
			got, err := json.Marshal(agg)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(tt.want); string(got) != string(want) {
				t.Errorf("MarshalJSON = %s, want %s", got, want)
			}
		})
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	e, ok := ByID("table4")
	if !ok {
		t.Fatal("table4 not registered")
	}
	p := quickParams()
	report, err := RunReplicated(e, p, 3)
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}
	found := false
	for _, tb := range report.Tables {
		for _, row := range tb.Rows {
			for _, c := range row {
				if c.reps == 3 {
					found = true
				}
			}
		}
		if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[len(tb.Notes)-1], "replications") {
			t.Errorf("aggregated table %q missing replication note", tb.Title)
		}
	}
	if !found {
		t.Error("no mean ± CI cell in aggregated report")
	}

	// A row key stays replication 0's text, and a replicated percent
	// cell is the mean ± CI of the raw per-seed values.
	knee, ok := ByID("knee")
	if !ok {
		t.Fatal("knee not registered")
	}
	report, err = RunReplicated(knee, p, 2)
	if err != nil {
		t.Fatalf("RunReplicated(knee): %v", err)
	}
	var runs [2]*Report
	for i := range runs {
		pi := p
		pi.Seed = SubSeed(p.Seed, i)
		if runs[i], err = knee.Run(pi); err != nil {
			t.Fatal(err)
		}
	}
	key := report.Tables[0].Rows[0][0]
	if key != runs[0].Tables[0].Rows[0][0] || key.String() != "7000" {
		t.Errorf("knee rate key = %q, want replication 0's text 7000", key)
	}
	cell := report.Tables[0].Rows[1][2]
	mean, half, err := metrics.MeanCI95([]float64{runs[0].Tables[0].Rows[1][2].v, runs[1].Tables[0].Rows[1][2].v})
	if err != nil {
		t.Fatal(err)
	}
	if cell.kind != kindPercent || cell.v != mean || cell.ci != half || cell.reps != 2 {
		t.Errorf("replicated cell = %+v, want percent mean %v ± %v over 2", cell, mean, half)
	}
}

func TestRunReplicatedSingleSeedPassThrough(t *testing.T) {
	e, ok := ByID("table4")
	if !ok {
		t.Fatal("table4 not registered")
	}
	p := quickParams()
	plain, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	viaReplicated, err := RunReplicated(e, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(viaReplicated)
	if string(a) != string(b) {
		t.Errorf("seeds=1 must be a plain run:\n plain: %s\n repl:  %s", a, b)
	}
}

func TestRunReplicatedWrapsReplicationError(t *testing.T) {
	boom := errors.New("boom")
	e := Experiment{ID: "explode", Run: func(p Params) (*Report, error) {
		if p.Seed != 3 {
			return nil, boom
		}
		return &Report{ID: "explode"}, nil
	}}
	_, err := RunReplicated(e, quickParams(), 3)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "replication 1") {
		t.Errorf("err %q does not name the failing replication", err)
	}
}
