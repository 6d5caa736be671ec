package protean

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// TestPlatformRunPinned pins the public API's output: the sha256 of a
// %+v rendering of *Result (not JSON, which rejects the NaN compliance
// a run without strict samples reports) for each trace shape, for the
// options that shape how a run is built (procurement, chaos, GPU
// generation, warmup, seed, shards) and for a best-effort-only and a
// fast-rotating workload. A refactor of the run path must keep every
// hash; shards 4 must hash like the inline run.
func TestPlatformRunPinned(t *testing.T) {
	const constant = "66955ff3645cd469dbb39fbcb0705c1b82d364f6c4d8fe6787a1b9a355cd1a1f"
	w := Workload{StrictModel: "ResNet 50", MeanRPS: 600, Duration: 10 * time.Second}
	with := func(f func(*Workload)) Workload {
		v := w
		f(&v)
		return v
	}
	for _, tc := range []struct {
		name string
		opts []Option
		w    Workload
		want string
	}{
		{"constant", nil, w, constant},
		{"shards 4", []Option{WithShards(4)}, w, constant},
		{"wiki", nil, with(func(v *Workload) { v.Shape = TraceWiki }), "7ee7be82a364e37d64b8e8b1986e3e0f2530707b33bcba68fce788632faf2e86"},
		{"twitter", nil, with(func(v *Workload) { v.Shape = TraceTwitter }), "d756f85a00733338f1f030b44dfcf4b7aa70fb3614be6d83b9da9d95432ed296"},
		{"hybrid moderate", []Option{WithProcurement(ProcurementHybrid, SpotModerate)}, w, "6391ddaecbe1f52c6af2d230bcde3d50406c8d1d7d1afb12533361bb908997aa"},
		{"chaos", []Option{WithChaos(1)}, w, "fefd2c9273f48f0ee69dbe1632439e9d45fb5503c9243725c0eaa3e54078e44c"},
		{"h100", []Option{WithGPUArch("h100")}, with(func(v *Workload) { v.StrictModel = "DPN 92" }), "c55392da1ddc681162d7ac923d1390cc1252041f5b165e3ca58feabda2a7f6d0"},
		{"warmup 0", []Option{WithWarmup(0)}, w, "66955ff3645cd469dbb39fbcb0705c1b82d364f6c4d8fe6787a1b9a355cd1a1f"},
		{"warmup 5s", []Option{WithWarmup(5 * time.Second)}, w, "d75127fdc139c44d7e58d7263acde7ab03eed6774e4d8f1a9cfa04b2ae8bcd44"},
		{"seed 0", []Option{WithSeed(0)}, w, "414f4e99d71ce222361b80f914405eb4779c3a4adf479bee34d1cb54ab43f32e"},
		{"best effort only", nil, with(func(v *Workload) {
			v.StrictModel = ""
			v.BEModels = []string{"VGG 19", "DPN 92"}
		}), "a076d0181dbc2d18bde7326bf7c525b7b52970531633bebd9be643950380dbe6"},
		{"rotate 3s", nil, with(func(v *Workload) { v.RotateEvery = 3 * time.Second }), "0bc654d69988c74036b8895e4e8d459525aac0b221e61aaa4f22ad02fd0b478e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pf, err := New(append([]Option{WithNodes(2), WithSeed(3)}, tc.opts...)...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := pf.Run(tc.w)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sha256(%%+v of Result) = %s, want %s", got, tc.want)
			}
		})
	}
}
