package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// testdata/traces.txt is `go tool pprof -traces` output trimmed to one
// stack per attribution case, from CPU profiles of the live-ingest and
// vision-gateway workloads.
func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		value  time.Duration
		leaf   string
		frames int
		layer  string
	}{
		{10 * time.Millisecond, "net/http.(*transferWriter).unwrapBody", 4, "nethttp"},
		{10 * time.Millisecond, "encoding/json.structEncoder.encode", 11, "api"},
		// obs is library code: the sample belongs to api, which called it.
		{10 * time.Millisecond, "protean/internal/obs.(*CounterVec).With", 6, "api"},
		{20 * time.Millisecond, "runtime.(*mspan).base", 8, "runtime_gc"},
		{10 * time.Millisecond, "runtime.execute", 4, "other"},
		// An allocation is charged to the layer that asked for it.
		{10 * time.Millisecond, "runtime.nextFreeFast", 14, "controlplane"},
		{10 * time.Millisecond, "protean/internal/cluster.(*Cluster).CollectLive", 12, "cluster"},
		{10 * time.Millisecond, "runtime.duffcopy", 12, "queue"},
		{10 * time.Millisecond, "runtime.memmove", 14, "metrics"},
		{10 * time.Millisecond, "container/heap.Pop", 14, "sim"},
		{10 * time.Millisecond, "protean/internal/trace.Generate", 13, "trace"},
	}
	if len(stacks) != len(want) {
		t.Fatalf("parsed %d stacks, want %d", len(stacks), len(want))
	}
	for i, w := range want {
		s := stacks[i]
		if s.value != w.value || s.frames[0] != w.leaf || len(s.frames) != w.frames {
			t.Errorf("stack %d: %v %q (%d frames), want %v %q (%d frames)", i, s.value, s.frames[0], len(s.frames), w.value, w.leaf, w.frames)
		}
		if got := layerOf(s.frames); got != w.layer {
			t.Errorf("stack %d (%s): layer %s, want %s", i, w.leaf, got, w.layer)
		}
	}

	shares := cpuShares(stacks)
	total := 0.0
	for name, v := range shares {
		if !strings.HasPrefix(name, "cpu.") {
			t.Errorf("share %s is not a cpu.* metric", name)
		}
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	for name, want := range map[string]float64{"cpu.api": 20, "cpu.runtime_gc": 20, "cpu.nethttp": 10, "cpu.other": 10, "cpu.gpu": 0} {
		if got := shares[name] * 120 / 100; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %.3f%% of 120 ms, want %v ms", name, shares[name], want)
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	in := "Type: cpu\n-----------+----\n      tenms   main.main\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Error("a block starting without a duration parsed")
	}
}
