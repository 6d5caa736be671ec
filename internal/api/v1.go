// The /v1 API: proteand's live multi-tenant serving surface, backed by
// internal/controlplane.
//
//	POST /v1/plane                    (re)configure the serving plane
//	GET  /v1/plane                    plane status + backlog
//	POST /v1/plane/drain              freeze, drain, final summary
//	GET  /v1/plane/log                ingest log (NDJSON, replayable)
//	GET  /v1/plane/trace[?kind=...]   lifecycle events (NDJSON)
//	GET  /v1/market/prices            marketplace quotes (market planes)
//	POST /v1/tenants                  register a tenant
//	GET  /v1/tenants                  all tenants' usage
//	GET  /v1/tenants/{id}/usage       one tenant's usage + billing
//	POST /v1/tenants/{id}/requests    ingest: single JSON or NDJSON stream
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"protean/internal/controlplane"
)

// PlaneConfig is the POST /v1/plane body. Zero fields keep defaults.
type PlaneConfig struct {
	// Seed drives all plane randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Nodes is the worker count (default 8).
	Nodes int `json:"nodes,omitempty"`
	// Shards is the shard worker count (default 1; behaviour is
	// byte-identical at every value).
	Shards int `json:"shards,omitempty"`
	// ChaosScale enables deterministic fault injection (0 = off).
	ChaosScale float64 `json:"chaosScale,omitempty"`
	// QuantumMillis is the wall→virtual quantization step (default 10).
	QuantumMillis float64 `json:"quantumMillis,omitempty"`
	// KeepWarmSeconds is the default tenant idle window before
	// scale-to-zero (default 10).
	KeepWarmSeconds float64 `json:"keepWarmSeconds,omitempty"`
	// Market enables the multi-provider GPU spot marketplace: worker
	// VMs lease through two-phase provisioning and GET /v1/market/prices
	// serves live quotes (default off).
	Market bool `json:"market,omitempty"`
}

// validate rejects a /v1/plane body past the size caps.
func (c PlaneConfig) validate() error {
	if err := checkScale(c.Nodes, c.ChaosScale); err != nil {
		return err
	}
	if c.Shards > maxShards {
		return fmt.Errorf("shards %d over the cap of %d", c.Shards, maxShards)
	}
	if q := c.QuantumMillis; q != 0 && (q < minQuantumMillis || q > maxQuantumMillis) {
		return fmt.Errorf("quantumMillis %v is neither 0 nor in [%v, %v]", q, minQuantumMillis, maxQuantumMillis)
	}
	return nil
}

// PlaneInfo is the GET /v1/plane response.
type PlaneInfo struct {
	VirtualTime float64 `json:"virtualTime"`
	Tenants     int     `json:"tenants"`
	// Backlog is total queued-but-unfinished requests.
	Backlog   int `json:"backlog"`
	Decisions int `json:"decisions"`
	// Fingerprint hashes every admission decision; two planes that served
	// identical logs show identical fingerprints.
	Fingerprint string `json:"fingerprint"`
	Seed        int64  `json:"seed"`
	Nodes       int    `json:"nodes"`
	Shards      int    `json:"shards"`
}

// getPlane returns the live plane, creating a default one on first use.
func (s *Server) getPlane() (*controlplane.Plane, error) {
	s.planeMu.Lock()
	defer s.planeMu.Unlock()
	if s.plane == nil {
		p, err := controlplane.New(controlplane.Options{
			WallNow:  s.wallNow,
			Registry: s.reg,
		})
		if err != nil {
			return nil, err
		}
		s.plane = p
	}
	return s.plane, nil
}

func (s *Server) handlePlaneConfig(w http.ResponseWriter, r *http.Request) {
	var cfg PlaneConfig
	if !decodeBody(w, r, &cfg, true) {
		return
	}
	if err := cfg.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Build and swap under planeMu: a new plane replaces the /metrics
	// series of the one before it, so the plane that registers last must
	// also be the one that serves.
	s.planeMu.Lock()
	p, err := controlplane.New(controlplane.Options{
		Seed:            cfg.Seed,
		Nodes:           cfg.Nodes,
		Shards:          cfg.Shards,
		ChaosScale:      cfg.ChaosScale,
		Quantum:         cfg.QuantumMillis / 1000,
		KeepWarmDefault: cfg.KeepWarmSeconds,
		Market:          cfg.Market,
		WallNow:         s.wallNow,
		Registry:        s.reg,
	})
	if err == nil {
		// Replace any previous plane; its virtual cluster is garbage once
		// unreferenced — no teardown needed.
		s.plane = p
	}
	s.planeMu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, planeInfo(p))
}

func planeInfo(p *controlplane.Plane) PlaneInfo {
	opts := p.Options()
	count, hash := p.DecisionFingerprint()
	return PlaneInfo{
		VirtualTime: p.Now(),
		Tenants:     len(p.Tenants()),
		Backlog:     p.Backlog().Total(),
		Decisions:   count,
		Fingerprint: fmt.Sprintf("%016x", hash),
		Seed:        opts.Seed,
		Nodes:       opts.Nodes,
		Shards:      opts.Shards,
	}
}

func (s *Server) handlePlaneInfo(w http.ResponseWriter, _ *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err := p.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, planeInfo(p))
}

func (s *Server) handlePlaneDrain(w http.ResponseWriter, _ *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sum, err := p.Drain()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handlePlaneLog(w http.ResponseWriter, _ *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := newNDJSONWriter(w)
	for _, e := range p.Log() {
		if err := out.Encode(e); err != nil {
			return
		}
	}
	out.start() // an empty log still yields a 200 NDJSON response
}

func (s *Server) handlePlaneTrace(w http.ResponseWriter, r *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	kinds := r.URL.Query()["kind"]
	out := newNDJSONWriter(w)
	for _, ev := range p.Events(kinds...) {
		if err := out.Encode(ev); err != nil {
			return
		}
	}
	out.start()
}

// handleMarketPrices serves the marketplace's live per-provider quotes:
// current spot price, EWMA forecast, free spot inventory, and the
// revocation profile. 404 on a plane configured without a market.
func (s *Server) handleMarketPrices(w http.ResponseWriter, _ *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	quotes, err := p.MarketQuotes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if quotes == nil {
		writeError(w, http.StatusNotFound,
			errors.New(`plane has no market (POST /v1/plane with "market": true)`))
		return
	}
	writeJSON(w, http.StatusOK, quotes)
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var cfg controlplane.TenantConfig
	if !decodeBody(w, r, &cfg, false) {
		return
	}
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err := p.RegisterTenant(cfg); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already registered") {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	u, err := p.Usage(cfg.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, u)
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	usages, err := p.UsageAll()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if usages == nil {
		usages = []controlplane.Usage{}
	}
	writeJSON(w, http.StatusOK, usages)
}

func (s *Server) handleTenantUsage(w http.ResponseWriter, r *http.Request) {
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	u, err := p.Usage(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// IngestLine is one ingest instruction: a request count plus, in manual
// mode (no wall clock), an explicit virtual timestamp.
type IngestLine struct {
	// N is the request count (default 1).
	N int `json:"n,omitempty"`
	// VT pins the arrival's virtual time; omitted, the wall clock (live
	// mode) or the plane's current virtual time (manual mode) is used.
	VT *float64 `json:"vt,omitempty"`
}

func isNDJSON(contentType string) bool {
	ct := strings.ToLower(contentType)
	return strings.Contains(ct, "ndjson") || strings.Contains(ct, "jsonl")
}

// decisionStatus maps an admission outcome to its HTTP status: admitted
// work is accepted, shed best-effort work acknowledges with 202, and
// rejected work gets 429 so clients back off.
func decisionStatus(d controlplane.Decision) int {
	switch d.Outcome {
	case controlplane.OutcomeAdmit:
		return http.StatusOK
	case controlplane.OutcomeShed:
		return http.StatusAccepted
	default:
		return http.StatusTooManyRequests
	}
}

// ingestStatus is the status for a failed ingest: 404 for an unknown
// tenant, 400 otherwise.
func ingestStatus(err error) int {
	if strings.Contains(err.Error(), "unknown tenant") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, err := s.getPlane()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// One body carries at most MaxIngestN requests (the sum of n over its
	// lines) and moves the clock at most MaxIngestSpan past where it
	// found it.
	budget, horizon := controlplane.MaxIngestN, p.Now()+controlplane.MaxIngestSpan
	ingest := func(line IngestLine) (controlplane.Decision, error) {
		if budget -= max(line.N, 1); budget < 0 {
			return controlplane.Decision{}, fmt.Errorf("body carries more than %d requests", controlplane.MaxIngestN)
		}
		if line.VT == nil {
			return p.Ingest(id, line.N)
		}
		if vt := *line.VT; vt < 0 || vt > horizon {
			return controlplane.Decision{}, fmt.Errorf("vt %v outside [0, %v]: must be non-negative and at most %v s past the plane's clock", vt, horizon, controlplane.MaxIngestSpan)
		}
		return p.IngestAt(*line.VT, id, line.N)
	}

	if isNDJSON(r.Header.Get("Content-Type")) {
		// Chunked NDJSON stream: one decision line per ingest line,
		// flushed as they happen.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		out := newNDJSONWriter(w)
		for {
			var line IngestLine
			if err := dec.Decode(&line); err == io.EOF {
				break
			} else if err != nil {
				out.fail(decodeStatus(err), "decode ingest line: "+err.Error())
				return
			}
			d, err := ingest(line)
			if err != nil {
				out.fail(ingestStatus(err), err.Error())
				return
			}
			if err := out.Encode(d); err != nil {
				return
			}
		}
		out.start()
		return
	}

	var line IngestLine
	if !decodeBody(w, r, &line, true) {
		return
	}
	d, err := ingest(line)
	if err != nil {
		writeError(w, ingestStatus(err), err)
		return
	}
	if d.Outcome == controlplane.OutcomeReject {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, decisionStatus(d), d)
}
