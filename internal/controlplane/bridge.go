// The paced wall→virtual bridge and the replay contract.
//
// Live mode quantizes wall-clock arrivals onto the virtual clock
// (Options.Quantum boundaries, clamped monotonic) and appends every
// externally visible mutation to an ingest log. The log records only
// {tenant registration, ingest attempt, final snapshot} with their
// quantized virtual timestamps — admission decisions are deliberately
// NOT recorded, because replay recomputes them and must arrive at the
// same answers. Intermediate advances (usage reads, Sync) are
// also not recorded: the simulation's event sequence is a pure function
// of event timestamps, not of how RunUntil partitioned them, so they
// are invisible to replay.
package controlplane

import (
	"encoding/json"
	"fmt"
	"io"
)

// Log operations.
const (
	// OpTenant registers a tenant (Config set).
	OpTenant = "tenant"
	// OpIngest is one ingest attempt (Tenant, N set).
	OpIngest = "ingest"
	// OpSnapshot marks the drain point.
	OpSnapshot = "snapshot"
)

// LogEntry is one recorded control-plane operation.
type LogEntry struct {
	// Op is the operation ("tenant", "ingest", "snapshot").
	Op string `json:"op"`
	// VT is the quantized virtual timestamp.
	VT float64 `json:"vt"`
	// Config is the tenant declaration (op "tenant" only).
	Config *TenantConfig `json:"config,omitempty"`
	// Tenant is the target tenant id (op "ingest" only).
	Tenant string `json:"tenant,omitempty"`
	// N is the request count (op "ingest" only).
	N int `json:"n,omitempty"`
}

// Log returns a copy of the ingest log recorded so far.
func (p *Plane) Log() []LogEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]LogEntry, len(p.log))
	copy(out, p.log)
	return out
}

// ReadLog parses a JSON-lines ingest log.
func ReadLog(r io.Reader) ([]LogEntry, error) {
	var out []LogEntry
	dec := json.NewDecoder(r)
	for {
		var e LogEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("controlplane: bad log entry %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// Replay reconstructs a plane by re-running a recorded ingest log
// against the given options (WallNow is ignored; replay is manual-mode
// by definition). With the same Seed the replayed plane makes the same
// admission decisions and accrues the same usage as the live plane that
// recorded the log — byte-identical, at any Shards value. The returned
// plane is drained and its summary final.
func Replay(opts Options, entries []LogEntry) (*Plane, *Summary, error) {
	opts.WallNow = nil
	p, err := New(opts)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	for i, e := range entries {
		switch e.Op {
		case OpTenant:
			if e.Config == nil {
				p.mu.Unlock()
				return nil, nil, fmt.Errorf("controlplane: log entry %d: tenant op without config", i)
			}
			if err := p.registerLocked(*e.Config, p.quantize(e.VT), true); err != nil {
				p.mu.Unlock()
				return nil, nil, fmt.Errorf("controlplane: log entry %d: %w", i, err)
			}
		case OpIngest:
			if _, err := p.ingestLocked(e.Tenant, e.N, p.quantize(e.VT), true); err != nil {
				p.mu.Unlock()
				return nil, nil, fmt.Errorf("controlplane: log entry %d: %w", i, err)
			}
		case OpSnapshot:
			if err := p.advanceLocked(p.quantize(e.VT)); err != nil {
				p.mu.Unlock()
				return nil, nil, fmt.Errorf("controlplane: log entry %d: %w", i, err)
			}
		default:
			p.mu.Unlock()
			return nil, nil, fmt.Errorf("controlplane: log entry %d: unknown op %q", i, e.Op)
		}
	}
	p.mu.Unlock()
	sum, err := p.Drain()
	if err != nil {
		return nil, nil, err
	}
	return p, sum, nil
}
