package reconfig

import (
	"testing"

	"protean/internal/gpu"
)

// FuzzPlan drives one planner through a script of monitor windows and
// checks every decision against Table 2. The fuzzer picks the wait
// limit, the starting geometry (any of gpu.ValidGeometries()), the BE
// batch memory, the forecast and the window length; each script byte is
// one window. Its low bit switches the forecast to the planner's EWMA,
// the next bit swaps in another valid geometry before planning, and the
// rest is the batch count the window observes. A window that
// reconfigures installs its Desired geometry, as the cluster's monitor
// does. Every Desired must validate on the A100 and be one of the
// enumerated geometries, and the wait counter must stay within the
// limit.
func FuzzPlan(f *testing.F) {
	f.Add(int8(3), uint8(0), 0.5, 2.0, 1.0, []byte{0, 4, 8, 12, 16, 20})
	f.Add(int8(0), uint8(5), 12.0, -1.0, 0.5, []byte{1, 5, 9, 3, 7, 255})
	f.Add(int8(-1), uint8(17), 0.0, 0.0, 0.0, []byte{2, 2, 2})
	f.Add(int8(1), uint8(9), 40.0, 1e9, 1e-9, []byte{255, 254, 253})
	valid := gpu.ValidGeometries()
	a100 := gpu.ArchA100()
	f.Fuzz(func(t *testing.T, waitLimit int8, cur uint8, mem, pred, window float64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		p := New(Config{WaitLimit: int(waitLimit)})
		limit := p.cfg.WaitLimit
		if limit < 1 || (waitLimit > 0 && limit != int(waitLimit)) {
			t.Fatalf("WaitLimit %d resolved to %d", waitLimit, limit)
		}
		in := PlanInput{
			Current:       valid[int(cur)%len(valid)],
			BEMemPerBatch: mem,
			WindowSeconds: window,
			BESolo:        func(prof gpu.Profile) float64 { return 0.05 / prof.ComputeFrac },
		}
		for i, b := range script {
			in.PredBEBatches = pred
			if b&1 != 0 {
				in.PredBEBatches = -1
			}
			if b&2 != 0 {
				in.Current = valid[int(b>>2)%len(valid)]
			}
			p.ObserveBEBatches(int(b >> 2))
			d := p.Plan(in)
			if err := a100.ValidateGeometry(d.Desired); err != nil {
				t.Fatalf("window %d: Desired %v: %v", i, d.Desired, err)
			}
			enumerated := false
			for _, g := range valid {
				if g.Equal(d.Desired) {
					enumerated = true
					break
				}
			}
			if !enumerated {
				t.Fatalf("window %d: Desired %v is not one of gpu.ValidGeometries()", i, d.Desired)
			}
			if d.WaitCtr < 0 || d.WaitCtr > limit {
				t.Fatalf("window %d: WaitCtr %d outside [0, %d]", i, d.WaitCtr, limit)
			}
			if d.Desired.Equal(in.Current) && (d.Reconfigure || d.WaitCtr != 0) {
				t.Fatalf("window %d: Desired equals Current %v but Reconfigure=%v WaitCtr=%d", i, in.Current, d.Reconfigure, d.WaitCtr)
			}
			if d.Reconfigure {
				in.Current = d.Desired
			}
		}
	})
}
