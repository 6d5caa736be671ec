package cluster

import (
	"testing"

	"protean/internal/core"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
)

// TestLiveDrainRecorderSketches asserts a live session keeps no exact
// sample buffer on the cluster side: Drain's recorder is a sketch whose
// exact counters still account for every completed request.
func TestLiveDrainRecorderSketches(t *testing.T) {
	s := sim.New(1)
	c, err := New(s, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.StartLive(); err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	m := model.MustByName("ResNet 18")
	for i := 0; i < 200; i++ {
		vt := float64(i) * 0.01
		if err := c.AdvanceTo(vt); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		req := trace.Request{ID: uint64(i), Tenant: "acme", Model: m, Strict: i%2 == 0, Arrival: vt}
		if err := c.Ingest(req); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	res, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !res.Recorder.Sketching() {
		t.Fatal("live Drain returned an exact recorder")
	}
	if got, want := res.Recorder.Requests(), res.Availability.Completed; got != want || got == 0 {
		t.Fatalf("recorder holds %d requests, %d completed", got, want)
	}
	if got := res.Recorder.Filter(func(s metrics.Sample) bool { return s.Tenant == "acme" }).Requests(); got != res.Availability.Completed {
		t.Fatalf("tenant view holds %d requests, want %d", got, res.Availability.Completed)
	}
}
