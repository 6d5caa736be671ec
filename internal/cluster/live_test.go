package cluster

import (
	"testing"

	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
)

// TestLiveDrainRecordsNoSamples asserts a live session keeps no
// samples on the cluster side: Drain's recorder is empty, and the
// completion rows CollectLive hands out account for every completed
// request, in time order.
func TestLiveDrainRecordsNoSamples(t *testing.T) {
	s := sim.New(1)
	c, err := New(s, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.StartLive(); err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	var comps []Completion
	m := model.MustByName("ResNet 18")
	for i := 0; i < 200; i++ {
		vt := float64(i) * 0.01
		if err := c.AdvanceTo(vt); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		done, _ := c.CollectLive()
		comps = append(comps, done...)
		req := trace.Request{ID: uint64(i), Tenant: "acme", Model: m, Strict: i%2 == 0, Arrival: vt}
		if err := c.Ingest(req); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	res, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	done, _ := c.CollectLive()
	comps = append(comps, done...)
	if got := res.Recorder.Len(); got != 0 {
		t.Fatalf("live Drain returned a recorder with %d samples", got)
	}
	rows := 0
	for i, cp := range comps {
		if i > 0 && cp.Time < comps[i-1].Time {
			t.Fatalf("completion %d at %v follows one at %v", i, cp.Time, comps[i-1].Time)
		}
		for _, r := range cp.Rows {
			if r.Tenant != "acme" {
				t.Fatalf("row tenant %q, want acme", r.Tenant)
			}
		}
		rows += len(cp.Rows)
	}
	if a := res.Availability; rows != a.Completed || rows == 0 {
		t.Fatalf("CollectLive handed out %d rows, %d completed", rows, a.Completed)
	}
}

// TestDisplacedJobThatFitsNoSliceIsDropped forces a reconfiguration
// that leaves queued DPN 92 jobs (13 GB) with nothing but 5 GB slices.
// Each displaced job must be dropped in full: counted, reported to the
// live plane, and taken off the node's outstanding work, so the drained
// cluster conserves requests and holds no backlog.
func TestDisplacedJobThatFitsNoSliceIsDropped(t *testing.T) {
	s := sim.New(1)
	big := model.MustByName("DPN 92")
	c, err := New(s, Config{
		Nodes:        1,
		Policy:       core.NewProtean(core.ProteanConfig{}),
		PreWarm:      []*model.Model{big},
		PreWarmCount: 16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.StartLive(); err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	for i := 0; i < 3*big.BatchSize(); i++ {
		req := trace.Request{ID: uint64(i + 1), Tenant: "acme", Model: big, Strict: true, Arrival: 0}
		if err := c.Ingest(req); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := c.AdvanceTo(0.2); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	n := c.nodes[0]
	// No slice holds two 13 GB jobs at once, so any load past one per
	// slice is queued, never started.
	queued := 0
	for _, sl := range n.gpu.Slices() {
		queued += max(sl.Load()-1, 0)
	}
	if queued == 0 || len(n.held) > 0 || c.Backlog().GatewayRequests+c.Backlog().SealedRequests > 0 {
		t.Fatalf("setup: %d jobs queued on slices, %d batches held, backlog %+v; want queued jobs only",
			queued, len(n.held), c.Backlog())
	}
	ones := make([]gpu.Profile, 7)
	for i := range ones {
		ones[i] = gpu.Profile1g
	}
	n.reconfigure(gpu.MustGeometry(ones...))
	res, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	a := res.Availability
	if a.Dropped == 0 {
		t.Fatal("no request dropped; the displaced jobs found a slice")
	}
	if a.Offered != a.Completed+a.Dropped {
		t.Errorf("offered %d != completed %d + dropped %d", a.Offered, a.Completed, a.Dropped)
	}
	if b := c.Backlog(); b.Total() != 0 {
		t.Errorf("drained cluster still holds backlog %+v", b)
	}
	_, drops := c.CollectLive()
	reported := 0
	for _, d := range drops {
		reported += d.Requests
	}
	if reported != a.Dropped {
		t.Errorf("live drop records cover %d requests, want %d", reported, a.Dropped)
	}
	// With the idle containers reclaimed, whatever stays warm is busy.
	n.scaler.Drain(big.Name())
	if busy := n.scaler.Warm(big.Name()); busy != 0 {
		t.Errorf("%d containers still busy after the drain", busy)
	}
}
