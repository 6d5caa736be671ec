// Package api implements the HTTP control plane served by cmd/proteand:
// a small REST interface for inspecting the model zoo and schemes,
// running serving scenarios on the simulated cluster, regenerating
// paper experiments remotely, downloading per-simulation traces, and
// exposing Prometheus metrics.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"protean"
	"protean/internal/controlplane"
	"protean/internal/experiments"
	"protean/internal/metrics"
	"protean/internal/obs"
)

// SimulateRequest is the POST /simulate body.
type SimulateRequest struct {
	// Nodes is the worker count (default 8).
	Nodes int `json:"nodes,omitempty"`
	// Scheme selects the policy (default "protean").
	Scheme string `json:"scheme,omitempty"`
	// SLOMultiplier scales strict targets (default 3).
	SLOMultiplier float64 `json:"sloMultiplier,omitempty"`
	// Procurement enables the VM cost layer ("", "on-demand",
	// "hybrid", "spot-only").
	Procurement string `json:"procurement,omitempty"`
	// SpotAvailability is "high", "moderate" or "low".
	SpotAvailability string `json:"spotAvailability,omitempty"`
	// Seed drives randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// WarmupSeconds excludes ramp-up from metrics.
	WarmupSeconds float64 `json:"warmupSeconds,omitempty"`
	// ChaosScale enables deterministic fault injection at a multiple of
	// the reference fault mix (0 = off).
	ChaosScale float64 `json:"chaosScale,omitempty"`

	// StrictModel names the strict workload.
	StrictModel string `json:"strictModel"`
	// BEModels is the rotating best-effort pool.
	BEModels []string `json:"beModels,omitempty"`
	// StrictFraction is the strict share (default 0.5).
	StrictFraction float64 `json:"strictFraction,omitempty"`
	// Shape is "constant", "wiki" or "twitter".
	Shape string `json:"shape,omitempty"`
	// MeanRPS is the mean (or Twitter peak) arrival rate.
	MeanRPS float64 `json:"meanRPS"`
	// DurationSeconds is the trace length (default 60).
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
	// Trace records the run's lifecycle events; the response carries a
	// traceId downloadable from GET /traces/{id}.
	Trace bool `json:"trace,omitempty"`
}

// SimulateResponse is the POST /simulate result.
type SimulateResponse struct {
	// SLOCompliance is 0 when no strict request was measured, as in
	// metrics.ModelStats: a NaN would fail the JSON encoding.
	SLOCompliance     float64                  `json:"sloCompliance"`
	StrictP50Millis   float64                  `json:"strictP50Millis"`
	StrictP99Millis   float64                  `json:"strictP99Millis"`
	BEP99Millis       float64                  `json:"beP99Millis"`
	Requests          int                      `json:"requests"`
	GPUUtilization    float64                  `json:"gpuUtilization"`
	MemoryUtilization float64                  `json:"memoryUtilization"`
	ColdStarts        int                      `json:"coldStarts"`
	Reconfigurations  int                      `json:"reconfigurations"`
	NormalizedCost    float64                  `json:"normalizedCost,omitempty"`
	Availability      float64                  `json:"availability"`
	Requeued          int                      `json:"requeued,omitempty"`
	Retries           int                      `json:"retries,omitempty"`
	GeometryTimeline  []protean.GeometryChange `json:"geometryTimeline,omitempty"`
	// Models is the per-model traffic snapshot (metrics.Recorder.Snapshot).
	Models []metrics.ModelStats `json:"models,omitempty"`
	// TraceID names the stored trace when the request set "trace": true;
	// download it from GET /traces/{traceId} (Chrome trace-event JSON,
	// or ?format=jsonl for the raw event log).
	TraceID string `json:"traceId,omitempty"`
	// TraceEvents is the recorded event count for a traced run.
	TraceEvents int `json:"traceEvents,omitempty"`
}

// DefaultTraceStore is the default bound on the per-simulation trace
// store; the least recently used trace is evicted beyond it.
const DefaultTraceStore = 16

// Server is the stateful control plane: the REST handlers plus a
// Prometheus-style metrics registry, a bounded store of per-simulation
// traces, and (lazily) the live multi-tenant serving plane.
type Server struct {
	reg *obs.Registry

	traceCap int
	wallNow  func() float64

	// mu guards the trace store and the server's own metric state,
	// which collect reads at every scrape.
	mu      sync.Mutex
	traces  map[string]obs.Trace
	order   []string // trace ids, least recently used first
	nextTID int

	httpReqs  map[httpKey]int // requests served
	modelReqs map[string]int  // simulated requests per model, across /simulate runs
	sims      int             // simulations completed
	simP99    obs.Histogram   // strict P99 (s) of completed simulations
	lastSLO   float64         // SLO compliance of the latest simulation that measured one

	planeMu sync.Mutex
	plane   *controlplane.Plane
}

// httpKey labels one proteand_http_requests_total series.
type httpKey struct {
	handler string
	code    int
}

// Option customizes a Server.
type Option func(*Server)

// WithTraceStore bounds the per-simulation trace store (default 16,
// LRU eviction).
func WithTraceStore(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.traceCap = n
		}
	}
}

// WithWallClock injects the wall clock (seconds) that paces the live
// control plane's virtual time. Without it the plane runs in manual
// mode: ingest requests must carry explicit virtual timestamps.
func WithWallClock(fn func() float64) Option {
	return func(s *Server) { s.wallNow = fn }
}

// NewServer returns a control plane with fresh metrics and trace state.
func NewServer(opts ...Option) *Server {
	s := &Server{
		reg:       obs.NewRegistry(),
		traces:    make(map[string]obs.Trace),
		traceCap:  DefaultTraceStore,
		httpReqs:  make(map[httpKey]int),
		modelReqs: make(map[string]int),
		simP99:    obs.Histogram{Bounds: []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}},
	}
	for _, o := range opts {
		o(s)
	}
	s.reg.Collect("api", s.collect)
	return s
}

// collect publishes the server's own series, read under s.mu. Map-held
// series are emitted in sorted key order, so no emit follows map order
// (the maporder lint rule).
func (s *Server) collect(c *obs.Collection) {
	httpReqs := c.Counter("proteand_http_requests_total",
		"HTTP requests served, by handler and status code.", "handler", "code")
	modelReqs := c.Counter("proteand_model_requests_total",
		"Simulated requests served per model across /simulate runs.", "model")
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]httpKey, 0, len(s.httpReqs))
	for k := range s.httpReqs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].handler != keys[j].handler {
			return keys[i].handler < keys[j].handler
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		httpReqs(float64(s.httpReqs[k]), k.handler, strconv.Itoa(k.code))
	}
	models := make([]string, 0, len(s.modelReqs))
	for m := range s.modelReqs {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		modelReqs(float64(s.modelReqs[m]), m)
	}
	c.Counter("proteand_simulations_total", "Simulations completed via POST /simulate.")(float64(s.sims))
	c.Histogram("proteand_sim_strict_p99_seconds", "Strict P99 latency of completed simulations.", s.simP99)
	c.Gauge("proteand_sim_slo_compliance", "SLO compliance of the most recent simulation.")(s.lastSLO)
}

// Handler returns the REST control plane backed by this server's state.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, name string, fn http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(name, fn))
	}
	handle("GET /healthz", "healthz", handleHealthz)
	handle("GET /models", "models", handleModels)
	handle("GET /schemes", "schemes", handleSchemes)
	handle("GET /experiments", "experiments", handleExperimentList)
	handle("POST /experiments/{id}", "experiment-run", handleExperimentRun)
	handle("POST /simulate", "simulate", s.handleSimulate)
	handle("GET /metrics", "metrics", s.handleMetrics)
	handle("GET /traces/{id}", "traces", s.handleTrace)
	handle("POST /v1/plane", "plane-config", s.handlePlaneConfig)
	handle("GET /v1/plane", "plane-info", s.handlePlaneInfo)
	handle("POST /v1/plane/drain", "plane-drain", s.handlePlaneDrain)
	handle("GET /v1/plane/log", "plane-log", s.handlePlaneLog)
	handle("GET /v1/plane/trace", "plane-trace", s.handlePlaneTrace)
	handle("GET /v1/market/prices", "market-prices", s.handleMarketPrices)
	handle("POST /v1/tenants", "tenant-create", s.handleTenantCreate)
	handle("GET /v1/tenants", "tenant-list", s.handleTenantList)
	handle("GET /v1/tenants/{id}/usage", "tenant-usage", s.handleTenantUsage)
	handle("POST /v1/tenants/{id}/requests", "tenant-ingest", s.handleIngest)
	return mux
}

// statusWriter captures the response status for request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument counts every request by handler name and status code,
// once its handler has returned: a scrape does not count itself.
func (s *Server) instrument(name string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		next(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.mu.Lock()
		s.httpReqs[httpKey{name, code}]++
		s.mu.Unlock()
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: an encode failure
	// (e.g. a NaN that slipped into a float field) must surface as a 500
	// with a JSON error body, not a 200 with an empty one.
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data = []byte(`{"error":` + strconv.Quote("encode response: "+err.Error()) + `}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		// Client went away; nothing else to do.
		_ = err
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxBodyBytes caps every request body the API decodes: /simulate and
// the /v1 writes. An NDJSON ingest stream is one body.
const maxBodyBytes = 1 << 20

// Caps on the sizes a request body may ask for. Each bounds the work a
// handler starts before it can answer: lanes built, fault timers armed,
// arrivals generated. A value past one is a 400.
const (
	maxNodes      = 256
	maxChaosScale = 100.0
	// A nonzero quantum must lie in [minQuantumMillis, maxQuantumMillis].
	minQuantumMillis = 0.1
	maxQuantumMillis = 1000.0
	// maxDurationSeconds bounds a /simulate trace, and maxArrivals its
	// expected request count, meanRPS × durationSeconds.
	maxDurationSeconds = 3600.0
	maxArrivals        = 1e7
)

// checkScale rejects a node count or chaos scale past its cap; both the
// /simulate and the /v1/plane body carry them.
func checkScale(nodes int, chaosScale float64) error {
	if nodes > maxNodes {
		return fmt.Errorf("nodes %d over the cap of %d", nodes, maxNodes)
	}
	if chaosScale > maxChaosScale {
		return fmt.Errorf("chaosScale %v over the cap of %v", chaosScale, maxChaosScale)
	}
	return nil
}

// validate rejects a /simulate body whose trace would be unbounded.
func (req SimulateRequest) validate() error {
	if err := checkScale(req.Nodes, req.ChaosScale); err != nil {
		return err
	}
	if d := req.DurationSeconds; d < 0 || d > maxDurationSeconds {
		return fmt.Errorf("durationSeconds %v outside [0, %v]", d, maxDurationSeconds)
	}
	// Cap the trace the run will generate: a duration that truncates to
	// 0 ns runs the default length.
	d := req.duration()
	if d <= 0 {
		d = protean.DefaultDuration
	}
	if n := req.MeanRPS * d.Seconds(); n > maxArrivals {
		return fmt.Errorf("meanRPS × durationSeconds = %v over the cap of %v requests", n, maxArrivals)
	}
	return nil
}

// duration is the trace length req asks protean.Workload for.
func (req SimulateRequest) duration() time.Duration {
	return time.Duration(req.DurationSeconds * float64(time.Second))
}

// decodeBody decodes r's JSON body into v, rejecting unknown fields.
// An empty body leaves v as it is when emptyOK. On failure it writes a
// 400, or a 413 for a body over maxBodyBytes, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil || (emptyOK && errors.Is(err, io.EOF)) {
		return true
	}
	writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
	return false
}

// decodeStatus is the status for a body that failed to decode: 413 once
// it ran past maxBodyBytes, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, protean.Models())
}

func handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, protean.Schemes())
}

func handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []entry
	for _, e := range experiments.Registry() {
		out = append(out, entry{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := experiments.ByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
		return
	}
	quick := r.URL.Query().Get("quick") != "" && r.URL.Query().Get("quick") != "0"
	report, err := e.Run(experiments.Params{Quick: quick})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, report)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := report.Render(w); err != nil {
		_ = err
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers already sent; nothing else to do.
		_ = err
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	tr, ok := s.traces[id]
	if ok {
		s.touchTrace(id)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (the %d least recently used traces are kept)", id, s.traceCap))
		return
	}
	var err error
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".json"))
		err = obs.WriteChrome(w, []obs.Trace{tr})
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".jsonl"))
		err = obs.WriteJSONL(w, []obs.Trace{tr})
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (chrome, jsonl)", r.URL.Query().Get("format")))
		return
	}
	if err != nil {
		// Body partially sent; nothing else to do.
		_ = err
	}
}

// storeTrace files a completed run's trace and returns its id. Beyond
// the store bound the least recently used trace is evicted — a trace
// being downloaded repeatedly stays available while stale ones age out.
func (s *Server) storeTrace(tr obs.Trace) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTID++
	id := "t" + strconv.Itoa(s.nextTID)
	s.traces[id] = tr
	s.order = append(s.order, id)
	if len(s.order) > s.traceCap {
		delete(s.traces, s.order[0])
		s.order = s.order[1:]
	}
	return id
}

// touchTrace marks a trace as recently used, moving it to the back of
// the eviction order.
func (s *Server) touchTrace(id string) {
	for i, v := range s.order {
		if v == id {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), id)
			return
		}
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.simulate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// simulate runs one scenario via the public API and folds the outcome
// into the server's metrics.
func (s *Server) simulate(req SimulateRequest) (*SimulateResponse, error) {
	opts := []protean.Option{}
	if req.Nodes > 0 {
		opts = append(opts, protean.WithNodes(req.Nodes))
	}
	if req.Scheme != "" {
		opts = append(opts, protean.WithScheme(protean.Scheme(req.Scheme)))
	}
	if req.SLOMultiplier > 0 {
		opts = append(opts, protean.WithSLOMultiplier(req.SLOMultiplier))
	}
	if req.Procurement != "" {
		opts = append(opts, protean.WithProcurement(
			protean.Procurement(req.Procurement),
			protean.SpotAvailability(req.SpotAvailability)))
	}
	if req.Seed != 0 {
		opts = append(opts, protean.WithSeed(req.Seed))
	}
	if req.WarmupSeconds > 0 {
		opts = append(opts, protean.WithWarmup(time.Duration(req.WarmupSeconds*float64(time.Second))))
	}
	if req.ChaosScale > 0 {
		opts = append(opts, protean.WithChaos(req.ChaosScale))
	}
	var col *obs.Collector
	if req.Trace {
		scheme := req.Scheme
		if scheme == "" {
			scheme = string(protean.SchemePROTEAN)
		}
		col = obs.NewCollector(fmt.Sprintf("%s %s seed=%d", scheme, req.StrictModel, req.Seed))
		opts = append(opts, protean.WithTracer(col))
	}
	pf, err := protean.New(opts...)
	if err != nil {
		return nil, err
	}
	res, err := pf.Run(protean.Workload{
		StrictModel:    req.StrictModel,
		BEModels:       req.BEModels,
		StrictFraction: req.StrictFraction,
		Shape:          protean.TraceShape(req.Shape),
		MeanRPS:        req.MeanRPS,
		Duration:       req.duration(),
	})
	if err != nil {
		return nil, err
	}
	out := &SimulateResponse{
		StrictP50Millis:   float64(res.StrictP50) / float64(time.Millisecond),
		StrictP99Millis:   float64(res.StrictP99) / float64(time.Millisecond),
		BEP99Millis:       float64(res.BEP99) / float64(time.Millisecond),
		Requests:          res.Requests,
		GPUUtilization:    res.GPUUtilization,
		MemoryUtilization: res.MemoryUtilization,
		ColdStarts:        res.ColdStarts,
		Reconfigurations:  res.Reconfigurations,
		NormalizedCost:    res.NormalizedCost,
		Availability:      res.Availability,
		Requeued:          res.Requeued,
		Retries:           res.Retries,
		GeometryTimeline:  res.GeometryTimeline,
		Models:            res.Models,
	}
	s.mu.Lock()
	s.sims++
	// A run with no strict sample past warmup reports NaN compliance;
	// keep it out of the response and the metrics.
	if !math.IsNaN(res.SLOCompliance) {
		out.SLOCompliance = res.SLOCompliance
		s.lastSLO = res.SLOCompliance
	}
	if sec := res.StrictP99.Seconds(); !math.IsNaN(sec) {
		s.simP99.Observe(sec)
	}
	for _, m := range res.Models {
		s.modelReqs[m.Model] += m.Requests
	}
	s.mu.Unlock()
	if col != nil {
		out.TraceID = s.storeTrace(col.Trace())
		out.TraceEvents = col.Len()
	}
	return out, nil
}
