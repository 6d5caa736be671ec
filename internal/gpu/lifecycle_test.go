package gpu

import (
	"math"
	"testing"

	"protean/internal/pool"
	"protean/internal/sim"
)

// completion is one job's completion as OnDone saw it.
type completion struct {
	id uint64
	at float64
}

// lifecycleRun plays a seeded sequence of submits, completions, slice
// failures and reconfigurations on MPS GPUs. With pooled set, every job
// object comes from one freelist and goes back through Reset after it
// completes, is killed or cannot be placed, so later jobs re-arm kept
// completion timers; otherwise every job is a fresh object.
type lifecycleRun struct {
	s      *sim.Sim
	gpus   []*GPU
	ws     []*stubWorkload
	rng    *sim.Rand
	pooled bool
	free   pool.Free[Job]
	nextID uint64
	done   []completion
	kills  int
}

// lifecycleGeoms are the geometries the run reconfigures between.
var lifecycleGeoms = []Geometry{
	MustGeometry(Profile4g, Profile3g),
	MustGeometry(Profile4g, Profile2g, Profile1g),
	MustGeometry(Profile3g, Profile2g, Profile1g, Profile1g),
}

// playLifecycle runs the sequence for seed on one GPU on the root, or
// on one GPU on each of lanes lanes, and records every completion in
// the order OnDone ran. Execution times, ticks and repair windows are multiples
// of 1/64 s and every job runs at slowdown 1, so completions often tie
// exactly and only timer sequence numbers and ranks order them.
func playLifecycle(t *testing.T, seed int64, pooled bool, lanes int) *lifecycleRun {
	t.Helper()
	s := sim.New(1)
	r := &lifecycleRun{s: s, rng: sim.NewRand(seed), pooled: pooled}
	r.free.Reset = (*Job).Reset
	for i := range 4 {
		r.ws = append(r.ws, &stubWorkload{
			name:   string(rune('a' + i)),
			solo7g: float64(1+i) / 16,
			fbr:    0.05,
			mem:    4,
			sm:     0.05,
		})
	}
	sims := []*sim.Sim{s}
	if lanes > 0 {
		sims = sims[:0]
		for i := range lanes {
			sims = append(sims, s.Lane(string(rune('p'+i))))
		}
	}
	for i, ls := range sims {
		g, err := NewGPU(ls, i, ArchA100(), lifecycleGeoms[0], ShareMPS)
		if err != nil {
			t.Fatal(err)
		}
		g.ReconfigDowntime = 0.25
		r.gpus = append(r.gpus, g)
	}
	tk, err := s.Every(1.0/64, r.tick)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *lifecycleRun) job() *Job {
	if r.pooled {
		return r.free.Get()
	}
	return &Job{}
}

func (r *lifecycleRun) release(j *Job) {
	if r.pooled {
		r.free.Put(j)
	}
}

// place submits j to the slice pick selects on g, and releases it when
// there is none or the slice refuses it.
func (r *lifecycleRun) place(g *GPU, j *Job, pick float64) {
	sls := g.Slices()
	if len(sls) == 0 {
		r.release(j)
		return
	}
	if sls[int(pick*float64(len(sls)))].Submit(j) != nil {
		r.release(j)
	}
}

func (r *lifecycleRun) onDone(j *Job) {
	r.done = append(r.done, completion{id: j.TraceID, at: j.Finished()})
	r.release(j)
}

// tick draws the same values in both modes: what it does depends only
// on the draws and on engine state, which the modes must not change.
func (r *lifecycleRun) tick() {
	for range 1 + r.rng.Intn(3) {
		g := r.gpus[r.rng.Intn(len(r.gpus))]
		switch op := r.rng.Intn(16); {
		case op < 12:
			j := r.job()
			r.nextID++
			j.W, j.TraceID, j.OnDone = r.ws[r.rng.Intn(len(r.ws))], r.nextID, r.onDone
			r.place(g, j, r.rng.Float64())
		case op < 14:
			killed, displaced := g.FailSlice(r.rng.Float64(), float64(1+r.rng.Intn(8))/64)
			r.kills += len(killed)
			for _, j := range killed {
				r.release(j)
			}
			for _, j := range displaced {
				r.place(g, j, r.rng.Float64())
			}
		default:
			geom := lifecycleGeoms[r.rng.Intn(len(lifecycleGeoms))]
			_ = g.Reconfigure(geom, func(displaced []*Job) {
				for _, j := range displaced {
					r.place(g, j, r.rng.Float64())
				}
			})
		}
	}
}

// TestRecycledCompletionTimerMatchesFresh plays seeded lifecycles twice,
// with pooled jobs that re-arm the completion timer they kept and with
// fresh jobs that each create one, and requires the same completions in
// the same order at bit-identical times. A re-armed timer must take a
// fresh sequence number, as a new one would, and a job reused on
// another lane must not keep its old lane's rank.
func TestRecycledCompletionTimerMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lanes int
	}{{"root", 0}, {"lanes", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			ties, kills := 0, 0
			for seed := int64(1); seed <= 8; seed++ {
				fresh := playLifecycle(t, seed, false, tc.lanes)
				pooled := playLifecycle(t, seed, true, tc.lanes)
				if len(fresh.done) != len(pooled.done) {
					t.Fatalf("seed %d: %d completions fresh, %d pooled", seed, len(fresh.done), len(pooled.done))
				}
				for i, f := range fresh.done {
					p := pooled.done[i]
					if f.id != p.id || math.Float64bits(f.at) != math.Float64bits(p.at) {
						t.Fatalf("seed %d: completion %d is job %d at %v pooled, job %d at %v fresh",
							seed, i, p.id, p.at, f.id, f.at)
					}
					if i > 0 && math.Float64bits(f.at) == math.Float64bits(fresh.done[i-1].at) {
						ties++
					}
				}
				if st := pooled.free.Stats(); st.Hits == 0 {
					t.Fatalf("seed %d: the pooled run reused no job", seed)
				}
				kills += pooled.kills
			}
			// The comparison has teeth only if tie order decided something
			// and killed jobs went back to the pool.
			if ties == 0 || kills == 0 {
				t.Fatalf("%d same-instant completions and %d killed jobs over all seeds; want both > 0", ties, kills)
			}
		})
	}
}

// TestPooledLifecycleAllocatesNothing is the allocation guard for the
// lifecycle: once a pooled job has started once, a submit → complete
// cycle against co-resident jobs allocates nothing.
func TestPooledLifecycleAllocatesNothing(t *testing.T) {
	short := &stubWorkload{name: "short", solo7g: 1e-6, fbr: 0.3, mem: 1, sm: 0.2}
	s, sl := benchSlice(7)
	free := pool.Free[Job]{Reset: (*Job).Reset}
	cycle := func() {
		if err := submitComplete(s, sl, &free, short); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the job object's first start creates its timer
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("pooled submit → complete cycle allocates %v objects, want 0", got)
	}
}

// TestResetPanicsOnQueuedTimer: a job whose completion timer is still
// queued is running, and must not reach a freelist.
func TestResetPanicsOnQueuedTimer(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	j := &Job{W: &stubWorkload{name: "w", solo7g: 1, fbr: 0.1, mem: 1}}
	if err := g.Slices()[0].Submit(j); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a running job did not panic")
		}
	}()
	j.Reset()
}
