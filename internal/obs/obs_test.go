package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if got := KindBatchSeal.String(); got != "batch-seal" {
		t.Errorf("KindBatchSeal = %q", got)
	}
	if got := KindDrop.String(); got != "drop" {
		t.Errorf("KindDrop = %q", got)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestEventJSONShape(t *testing.T) {
	ev := At(1.5, KindBatchSeal)
	ev.Batch = 7
	ev.Model = "ResNet 50"
	ev.Strict = true
	ev.Requests = 3
	ev.Value = 1.2
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":1.5,"kind":"batch-seal","node":-1,"slice":-1,"batch":7,"model":"ResNet 50","strict":true,"requests":3,"value":1.2}`
	if string(data) != want {
		t.Errorf("marshal = %s\nwant      %s", data, want)
	}

	// Optional fields drop out when zero; Node/Slice always render.
	minimal, err := json.Marshal(At(0, KindVMDown))
	if err != nil {
		t.Fatal(err)
	}
	if string(minimal) != `{"t":0,"kind":"vm-down","node":-1,"slice":-1}` {
		t.Errorf("minimal marshal = %s", minimal)
	}
}

func TestNopTracer(t *testing.T) {
	tr := Nop()
	if tr.Enabled() {
		t.Error("nop tracer is enabled")
	}
	tr.Emit(At(1, KindBatchSeal)) // must not panic
}

func TestCollector(t *testing.T) {
	c := NewCollector("run-a")
	if !c.Enabled() {
		t.Fatal("collector not enabled")
	}
	c.Emit(At(1, KindBatchSeal))
	c.Emit(At(2, KindDispatch))
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	tr := c.Trace()
	if tr.Label != "run-a" || len(tr.Events) != 2 || tr.Events[1].Kind != KindDispatch {
		t.Errorf("trace = %+v", tr)
	}
}

func TestTraceSetOrderAndLabels(t *testing.T) {
	ts := NewTraceSet()
	a := ts.NewCollector("alpha")
	b := ts.NewCollector("alpha") // duplicate label must stay unambiguous
	c := ts.NewCollector("")
	a.Emit(At(1, KindBatchSeal))
	b.Emit(At(2, KindBatchSeal))
	b.Emit(At(3, KindDrop))
	traces := ts.Traces()
	if len(traces) != 3 {
		t.Fatalf("traces = %d", len(traces))
	}
	wantLabels := []string{"000 alpha", "001 alpha", "002 run"}
	for i, w := range wantLabels {
		if traces[i].Label != w {
			t.Errorf("trace %d label = %q, want %q", i, traces[i].Label, w)
		}
	}
	if len(traces[1].Events) != 2 {
		t.Errorf("collector b events = %d", len(traces[1].Events))
	}
	if ts.Events() != 3 {
		t.Errorf("total events = %d", ts.Events())
	}
	if c.Len() != 0 {
		t.Errorf("collector c events = %d", c.Len())
	}
}

func TestAssemble(t *testing.T) {
	p := &Phases{Queue: 0.001, MinPossible: 0.004, Deficiency: 0.002, Interference: 0.0005}
	events := []Event{
		// batch 1: full lifecycle.
		{T: 0.060, Kind: KindBatchSeal, Node: -1, Slice: -1, Batch: 1, Model: "ResNet 50", Strict: true, Requests: 2, Value: 0.010},
		{T: 0.060, Kind: KindDispatch, Node: 0, Slice: -1, Batch: 1},
		{T: 0.060, Kind: KindColdStart, Node: 0, Slice: -1, Batch: 1, Value: 0.5},
		{T: 0.600, Kind: KindAdmit, Node: 0, Slice: 1, Batch: 1},
		{T: 0.601, Kind: KindExecStart, Node: 0, Slice: 1, Batch: 1},
		{T: 0.608, Kind: KindExecEnd, Node: 0, Slice: 1, Batch: 1, Phases: p},
		// batch 2: sealed and never executed.
		{T: 0.100, Kind: KindBatchSeal, Node: -1, Slice: -1, Batch: 2, Model: "VGG 19", Requests: 4, Value: 0.080},
		// batch-less event is ignored.
		{T: 0.200, Kind: KindSlowdown, Node: 0, Slice: 1, Value: 1.3},
	}
	spans := Assemble(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	sp := spans[0]
	if sp.Batch != 1 || !sp.Strict || sp.Model != "ResNet 50" || sp.Requests != 2 {
		t.Errorf("span 1 identity = %+v", sp)
	}
	if sp.FirstArrival != 0.010 || sp.Sealed != 0.060 || sp.Admitted != 0.600 || sp.Started != 0.601 || sp.Ended != 0.608 {
		t.Errorf("span 1 timeline = %+v", sp)
	}
	if sp.Node != 0 || sp.Slice != 1 || sp.ColdStart != 0.5 {
		t.Errorf("span 1 placement = %+v", sp)
	}
	if !sp.Completed() {
		t.Error("span 1 not completed")
	}
	if got := sp.ExecTime(); got < 0.0069 || got > 0.0071 {
		t.Errorf("ExecTime = %v", got)
	}
	// Admitted - Sealed - ColdStart = 0.600 - 0.060 - 0.5 = 0.040.
	if got := sp.GatewayQueue(); got < 0.0399 || got > 0.0401 {
		t.Errorf("GatewayQueue = %v", got)
	}
	if sp.Phases != *p {
		t.Errorf("Phases = %+v", sp.Phases)
	}

	sp2 := spans[1]
	if sp2.Batch != 2 || sp2.Completed() || sp2.Node != -1 {
		t.Errorf("span 2 = %+v", sp2)
	}
	// The seal's Value is the oldest member's arrival.
	if sp2.FirstArrival != 0.080 {
		t.Errorf("span 2 FirstArrival = %v", sp2.FirstArrival)
	}
	if sp2.ExecTime() != 0 || sp2.GatewayQueue() != 0 {
		t.Errorf("span 2 durations = %v, %v", sp2.ExecTime(), sp2.GatewayQueue())
	}
}

func TestGatewayQueueClamp(t *testing.T) {
	sp := &Span{Sealed: 1.0, Admitted: 1.1, ColdStart: 0.5}
	if got := sp.GatewayQueue(); got != 0 {
		t.Errorf("GatewayQueue = %v, want clamp to 0", got)
	}
}

func TestPhasesTotal(t *testing.T) {
	p := Phases{Queue: 1, ColdStart: 2, MinPossible: 3, Deficiency: 4, Interference: 5}
	if p.Total() != 15 {
		t.Errorf("Total = %v", p.Total())
	}
}

func TestKindCounts(t *testing.T) {
	events := []Event{
		At(1, KindDispatch), At(2, KindDispatch), At(3, KindBatchSeal),
	}
	counts := KindCounts(events)
	if counts["dispatch"] != 2 || counts["batch-seal"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if got := FormatKindCounts(counts); got != "batch-seal=1 dispatch=2" {
		t.Errorf("format = %q", got)
	}
	if got := FormatKindCounts(nil); got != "" {
		t.Errorf("empty format = %q", got)
	}
}

func TestFormatKindCountsSorted(t *testing.T) {
	got := FormatKindCounts(map[string]int{"drop": 1, "admit": 2, "vm-down": 3})
	if !strings.HasPrefix(got, "admit=2 ") || !strings.HasSuffix(got, " vm-down=3") {
		t.Errorf("format = %q", got)
	}
}
