package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"protean/internal/api"
	"protean/internal/autoscale"
	"protean/internal/cluster"
	"protean/internal/controlplane"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// liveTenants are the soak tenants of cmd/protean-load: four models
// across the three SLO classes, two of them shared by two tenants.
var liveTenants = []controlplane.TenantConfig{
	{ID: "resnet18-gold", Model: "ResNet 18", Class: "gold"},
	{ID: "bert-silver", Model: "BERT", Class: "silver"},
	{ID: "mobilenet-bronze", Model: "MobileNet", Class: "bronze"},
	{ID: "distilbert-gold", Model: "DistilBERT", Class: "gold"},
	{ID: "resnet18-silver", Model: "ResNet 18", Class: "silver"},
	{ID: "bert-bronze", Model: "BERT", Class: "bronze"},
}

// liveSpec is the live-ingest workload: proteand's /v1 API in manual
// mode on a loopback listener, driven over one HTTP connection.
type liveSpec struct {
	// Phase A: open-loop Poisson arrivals at openRate per wall second
	// for openSeconds, each due at its virtual time.
	openRate, openSeconds float64
	// Phase B: a fixed schedule of closedReqs requests at closedRate per
	// virtual second, sent back to back on a fresh plane per pass.
	closedReqs int
	closedRate float64
	// extraSetups is how many more timed plane set-ups each pass takes.
	extraSetups int
	// pin is phase B's admission outcome at seed 1.
	pin *livePin
}

// livePin is one phase-B pass's admission record.
type livePin struct {
	Decisions                int
	Fingerprint              string
	Admitted, Shed, Rejected int
}

func liveWorkload(spec liveSpec) workload {
	return workload{
		name: "live-ingest",
		why:  "proteand's serving path: HTTP, JSON, admission, the live cluster and the market; open loop, then closed loop",
		run:  func(r *runner) error { return r.runLive(spec) },
	}
}

// liveOp is one scheduled ingest request.
type liveOp struct {
	tenant int
	due    time.Duration // arrival: phase A sends the request at this offset
	vt     float64       // the virtual time the body carries
	body   []byte
}

// planeQuantum is the plane's default wall→virtual step.
const planeQuantum = 0.010

// gridVT returns the first virtual time at or after x that the plane's
// quantizer, ceil(x/q)·q, maps to itself. The quantizer is not
// idempotent in floating point (ceil(0.07/0.01) is 8): about one
// timestamp in eighteen moves a further step when a replay quantizes
// the logged value again, which changes decisions. Sending fixed points
// keeps the live plane and its replay on the same instants.
func gridVT(x float64) float64 {
	v := math.Ceil(x/planeQuantum) * planeQuantum
	for next := math.Ceil(v/planeQuantum) * planeQuantum; next != v; next = math.Ceil(v/planeQuantum) * planeQuantum {
		v = next
	}
	return v
}

// liveSchedule draws a Poisson arrival process at rate per second from
// the trace package — its first n arrivals, or all of duration when n
// is 0 — and gives each a uniformly drawn tenant. Each body pins the
// request's virtual time to its arrival (on the plane's grid, see
// gridVT), so the plane's admission decisions are a function of the
// schedule alone, never of host timing.
func liveSchedule(seed int64, rate, duration float64, n int) ([]liveOp, trace.Config, error) {
	cfg := trace.Config{
		Rate:     trace.Constant(rate),
		Mix:      trace.Mix{StrictFrac: 1, Strict: model.MustByName(liveTenants[0].Model)},
		Duration: duration,
		Seed:     seed,
	}
	reqs, err := trace.Generate(cfg)
	if err != nil {
		return nil, cfg, err
	}
	if n > 0 {
		if len(reqs) < n {
			return nil, cfg, fmt.Errorf("live schedule: %d arrivals in %gs, want %d", len(reqs), duration, n)
		}
		reqs = reqs[:n]
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]liveOp, len(reqs))
	for i, q := range reqs {
		vt := gridVT(q.Arrival)
		ops[i] = liveOp{
			tenant: rng.Intn(len(liveTenants)),
			due:    time.Duration(q.Arrival * float64(time.Second)),
			vt:     vt,
			body:   []byte(`{"vt":` + strconv.FormatFloat(vt, 'g', -1, 64) + `}`),
		}
	}
	return ops, cfg, nil
}

// liveServer is one API server on a loopback listener, holding a plane
// with the tenants registered, and the one-connection client driving it.
type liveServer struct {
	ts     *httptest.Server
	client *http.Client
}

// startLive sets up a server: listener, plane (with the marketplace)
// and tenants. The returned seconds are the set-up time.
func (r *runner) startLive(parent int) (*liveServer, float64, error) {
	sp := r.spans.begin("setup", "setup", parent)
	defer r.spans.end(sp)
	t0 := time.Now()
	ls := &liveServer{
		ts: httptest.NewServer(api.NewServer().Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	plane := fmt.Sprintf(`{"seed":%d,"market":true}`, r.seed)
	if _, err := r.call(ls, sp, http.MethodPost, "/v1/plane", []byte(plane), http.StatusOK); err != nil {
		ls.close()
		return nil, 0, err
	}
	for _, t := range liveTenants {
		body, err := json.Marshal(t)
		if err == nil {
			_, err = r.call(ls, sp, http.MethodPost, "/v1/tenants", body, http.StatusCreated)
		}
		if err != nil {
			ls.close()
			return nil, 0, err
		}
	}
	return ls, time.Since(t0).Seconds(), nil
}

// close shuts the listener down and waits for its connections to end.
func (ls *liveServer) close() {
	ls.client.CloseIdleConnections()
	ls.ts.Close()
}

// do sends one request and returns its status and, when keep is set,
// its body.
func (ls *liveServer) do(method, path string, body []byte, keep bool) (int, []byte, error) {
	req, err := http.NewRequest(method, ls.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	var out []byte
	if keep {
		out, err = io.ReadAll(res.Body)
	} else {
		_, err = io.Copy(io.Discard, res.Body)
	}
	return res.StatusCode, out, err
}

// call is one control request, which must answer with status want.
func (r *runner) call(ls *liveServer, parent int, method, path string, body []byte, want int) ([]byte, error) {
	r.res.attempted++
	sp := r.spans.begin(method+" "+path, "http", parent)
	status, out, err := ls.do(method, path, body, true)
	r.spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(out))
	}
	return out, nil
}

// admissions tallies ingest outcomes by status — 200 admitted, 202
// shed, 429 rejected — and, when the bodies were read, rejections by
// reason.
type admissions struct {
	admitted, shed, rejected int
	backlog, rateLimit       int
}

// ingest sends one scheduled request. parent 0 records no span; reason
// reads the decision body to split rejections by reason.
func (r *runner) ingest(ls *liveServer, path string, op liveOp, parent int, tally *admissions, reason bool) int {
	r.res.attempted++
	sp := 0
	if parent != 0 {
		sp = r.spans.begin("ingest", "http", parent)
	}
	status, body, err := ls.do(http.MethodPost, path, op.body, reason)
	r.spans.end(sp)
	if err != nil {
		r.res.fail("ingest: %v", err)
		return 0
	}
	switch status {
	case http.StatusOK:
		tally.admitted++
	case http.StatusAccepted:
		tally.shed++
	case http.StatusTooManyRequests:
		tally.rejected++
		if reason {
			var d controlplane.Decision
			if err := json.Unmarshal(body, &d); err != nil {
				r.res.fail("ingest: decode decision: %v", err)
			}
			switch d.Reason {
			case controlplane.ReasonBacklog:
				tally.backlog++
			case controlplane.ReasonRateLimit:
				tally.rateLimit++
			}
		}
	default:
		r.res.fail("ingest: status %d", status)
	}
	return status
}

// planeOutcome is a drained plane's admission record.
type planeOutcome struct {
	decisions   int
	fingerprint string
	logOps      int
	replay      float64 // host seconds controlplane.Replay took
	summary     controlplane.Summary
}

// finishPlane reads the plane's decision fingerprint and, with replay
// set, fetches its ingest log, replays it through controlplane.Replay
// and requires the replayed plane's fingerprint to match. Then it
// drains the plane.
func (r *runner) finishPlane(ls *liveServer, parent int, replay bool) (*planeOutcome, error) {
	body, err := r.call(ls, parent, http.MethodGet, "/v1/plane", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var info api.PlaneInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("decode plane info: %w", err)
	}
	out := &planeOutcome{decisions: info.Decisions, fingerprint: info.Fingerprint}
	if replay {
		body, err := r.call(ls, parent, http.MethodGet, "/v1/plane/log", nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		entries, err := controlplane.ReadLog(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		sp := r.spans.begin("replay", "replay.controlplane", parent)
		t0 := time.Now()
		plane, _, err := controlplane.Replay(controlplane.Options{Seed: r.seed, Market: true}, entries)
		out.replay = time.Since(t0).Seconds()
		r.spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		n, h := plane.DecisionFingerprint()
		if got := fmt.Sprintf("%016x", h); n != info.Decisions || got != info.Fingerprint {
			r.res.fail("replayed plane made %d decisions (fingerprint %s), live plane %d (%s)", n, got, info.Decisions, info.Fingerprint)
		}
		out.logOps = len(entries)
	}
	body, err = r.call(ls, parent, http.MethodPost, "/v1/plane/drain", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &out.summary); err != nil {
		return nil, fmt.Errorf("decode drain summary: %w", err)
	}
	return out, nil
}

func (r *runner) runLive(spec liveSpec) error {
	openOps, _, err := liveSchedule(r.seed*2, spec.openRate, spec.openSeconds, 0)
	if err != nil {
		return err
	}
	// Draw the closed-loop schedule from a horizon long enough that the
	// Poisson process always yields closedReqs arrivals.
	horizon := 1.2*float64(spec.closedReqs)/spec.closedRate + 1
	closedOps, closedProcess, err := liveSchedule(r.seed*2+1, spec.closedRate, horizon, spec.closedReqs)
	if err != nil {
		return err
	}
	paths := make([]string, len(liveTenants))
	for i, t := range liveTenants {
		paths[i] = "/v1/tenants/" + t.ID + "/requests"
	}

	start := time.Now()
	if err := r.liveOpenLoop(openOps, paths); err != nil {
		r.res.fail("open loop: %v", err)
	}
	budget := r.seconds - time.Since(start).Seconds()

	// The first closed-loop pass is the reference: its log is replayed,
	// its admitted requests feed the traced run's cell, and every later
	// pass must reproduce its decisions.
	var ref *planeOutcome
	var refTally admissions
	var refStatuses []int
	closedPass := func(instrumented bool) (float64, admissions, error) {
		var tally admissions
		sp := r.spans.begin("closed loop", "pass", r.root)
		defer r.spans.end(sp)
		ls, setup, err := r.startLive(sp)
		if err != nil {
			return 0, tally, err
		}
		defer ls.close()
		r.res.setup = append(r.res.setup, setup)
		first := ref == nil
		var statuses []int
		opSpan := 0
		run := r.spans.begin("run", "run", sp)
		if instrumented {
			opSpan = run
		}
		t0 := time.Now()
		for _, op := range closedOps {
			st := r.ingest(ls, paths[op.tenant], op, opSpan, &tally, instrumented)
			if first {
				statuses = append(statuses, st)
			}
		}
		d := time.Since(t0).Seconds()
		r.spans.end(run)
		out, err := r.finishPlane(ls, sp, first)
		if err != nil {
			return 0, tally, err
		}
		got := livePin{Decisions: out.decisions, Fingerprint: out.fingerprint, Admitted: tally.admitted, Shed: tally.shed, Rejected: tally.rejected}
		if first {
			ref, refTally, refStatuses = out, tally, statuses
			fmt.Fprintf(r.log, "perfbench: closed loop outcome: %+v\n", got)
			if spec.pin != nil && r.seed == 1 && got != *spec.pin {
				r.res.fail("closed loop seed 1: got %+v, pinned %+v", got, *spec.pin)
			}
			r.liveOutcomeInfo(out, tally, len(closedOps))
			return d, tally, nil
		}
		want := livePin{Decisions: ref.decisions, Fingerprint: ref.fingerprint, Admitted: refTally.admitted, Shed: refTally.shed, Rejected: refTally.rejected}
		if got != want {
			r.res.fail("closed loop pass: got %+v, first pass %+v", got, want)
		}
		return d, tally, nil
	}

	if !r.traced {
		r.loop(budget, func() error {
			err := r.moreSetups(spec.extraSetups, func() (float64, error) {
				ls, s, err := r.startLive(0)
				if err == nil {
					ls.close()
				}
				return s, err
			})
			if err != nil {
				return err
			}
			d, _, err := closedPass(false)
			if err != nil {
				return err
			}
			r.res.run = append(r.res.run, d)
			return nil
		})
		if len(r.res.run) > 0 {
			r.res.info["closed.capacity_rps"] = float64(len(closedOps)) / median(r.res.run)
		}
		return nil
	}

	profile := r.tempPath("cpu", ".pprof")
	var plainRuns, instRuns []float64
	var instTally admissions
	err = r.plainPhase(profile, budget/2, func() error {
		d, _, err := closedPass(false)
		if err == nil {
			plainRuns = append(plainRuns, d)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.loop(budget/2, func() error {
		d, t, err := closedPass(true)
		if err == nil {
			instRuns, instTally = append(instRuns, d), t
		}
		return err
	})
	if ref == nil {
		return fmt.Errorf("no closed-loop pass completed")
	}
	L := r.res.layers
	L["bench.tracing_overhead"] = median(instRuns)/median(plainRuns) - 1
	L["controlplane.replay_ops_per_s"] = float64(ref.logOps) / ref.replay
	if httpS := median(plainRuns) - ref.replay; httpS > 0 {
		L["api.ops_per_s"] = float64(len(closedOps)) / httpS
	}
	n := float64(len(closedOps))
	L["controlplane.admit_frac"] = float64(instTally.admitted) / n
	L["controlplane.shed_frac"] = float64(instTally.shed) / n
	L["controlplane.reject_backlog_frac"] = float64(instTally.backlog) / n
	L["controlplane.reject_ratelimit_frac"] = float64(instTally.rateLimit) / n

	if _, err := r.cellProbe(liveCell(r.seed, closedProcess, closedOps, refStatuses)); err != nil {
		return err
	}
	return r.attribute(profile)
}

// liveOpenLoop is phase A: open-loop Poisson ingest on a fresh plane,
// each request timed from its due time. The latencies are reported as
// information, and the plane's log must replay to its decisions.
func (r *runner) liveOpenLoop(ops []liveOp, paths []string) error {
	sp := r.spans.begin("open loop", "pass", r.root)
	defer r.spans.end(sp)
	ls, setup, err := r.startLive(sp)
	if err != nil {
		return err
	}
	defer ls.close()
	r.res.setup = append(r.res.setup, setup)
	due := make([]time.Duration, len(ops))
	for i, op := range ops {
		due[i] = op.due
	}
	var tally admissions
	run := r.spans.begin("run", "run", sp)
	lat, lag := openLoop(newWallClock(), due, func(i int) {
		r.ingest(ls, paths[ops[i].tenant], ops[i], run, &tally, false)
	})
	r.spans.end(run)
	if _, err := r.finishPlane(ls, sp, true); err != nil {
		return err
	}
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / float64(time.Millisecond)
		}
		return out
	}
	latMs, lagMs := ms(lat), ms(lag)
	tail := supportedPercentile(len(latMs))
	I := r.res.info
	I["open.requests"] = float64(len(ops))
	I["open.admit_frac"] = float64(tally.admitted) / float64(max(len(ops), 1))
	I["open.latency_p50_ms"] = percentile(latMs, 50)
	I["open.tail_percentile"] = tail
	I["open.latency_tail_ms"] = percentile(latMs, tail)
	I["open.send_lag_p50_ms"] = percentile(lagMs, 50)
	I["open.send_lag_tail_ms"] = percentile(lagMs, tail)
	return nil
}

// liveOutcomeInfo records the reference pass's serving outcome: the
// share of attempted requests completed within their tenant's target
// (a refused request misses it) and the share refused.
func (r *runner) liveOutcomeInfo(out *planeOutcome, tally admissions, attempted int) {
	good := 0
	for _, u := range out.summary.Tenants {
		good += u.Completed - u.SLOViolations
	}
	I := r.res.info
	I["closed.requests"] = float64(attempted)
	I["closed.goodput_frac"] = float64(good) / float64(attempted)
	I["closed.refused_frac"] = float64(tally.shed+tally.rejected) / float64(attempted)
}

// liveCell replays the requests phase B's plane admitted into a
// batch-mode cluster configured like the plane's: eight PROTEAN nodes,
// the default market catalog with cheapest-spot procurement, a 60 s
// container keep-alive, and each tenant model pre-warmed one container
// per node. process is the arrival process the schedule was drawn from.
func liveCell(seed int64, process trace.Config, ops []liveOp, statuses []int) cell {
	fixed := []trace.Request{}
	var prewarm []*model.Model
	seen := map[string]bool{}
	for _, t := range liveTenants {
		if !seen[t.Model] {
			seen[t.Model] = true
			prewarm = append(prewarm, model.MustByName(t.Model))
		}
	}
	for i, op := range ops {
		if i >= len(statuses) || statuses[i] != http.StatusOK {
			continue
		}
		t := liveTenants[op.tenant]
		class, _ := controlplane.ClassByName(t.Class)
		fixed = append(fixed, trace.Request{
			ID:      uint64(len(fixed)),
			Tenant:  t.ID,
			Model:   model.MustByName(t.Model),
			Strict:  class.Strict,
			Arrival: op.vt,
		})
	}
	return cell{
		label:    "live-ingest admitted requests",
		seed:     seed,
		duration: process.Duration,
		arrivals: process,
		fixed:    fixed,
		config: func(s *sim.Sim) (cluster.Config, error) {
			mk, err := market.New(s, market.Config{}, vm.DefaultMarketCatalog())
			if err != nil {
				return cluster.Config{}, err
			}
			if err := mk.Start(); err != nil {
				return cluster.Config{}, err
			}
			return cluster.Config{
				Nodes:        8,
				Scaler:       autoscale.Config{KeepAlive: 60},
				VM:           &vm.Config{Market: mk, Procurement: market.CheapestSpot()},
				PreWarm:      prewarm,
				PreWarmCount: 1,
			}, nil
		},
		policy: core.NewProtean(core.ProteanConfig{}),
	}
}
