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
	"math"
)

// Log operations.
const (
	// OpTenant registers a tenant (Config set).
	OpTenant = "tenant"
	// OpIngest is one ingest attempt (Tenant, N set).
	OpIngest = "ingest"
	// OpSnapshot marks an advance point: the drain, or a bridge over a
	// long idle stretch (see record).
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

// Bounds on recorded work. The plane admits every request and simulates
// every virtual second it advances under its lock, so an unbounded
// ingest would stall all other clients. The /v1 ingest API applies them
// to one request body; the plane applies them to each log entry, so
// Replay can refuse a log that breaks them without ever refusing one a
// plane wrote.
const (
	// MaxIngestN caps the requests one ingest body (or log entry) may
	// carry.
	MaxIngestN = 100_000
	// MaxIngestSpan caps, in virtual seconds, how far one ingest body
	// may move the clock past where it found it, and how far one log
	// entry's VT may lie past the entry before it.
	MaxIngestSpan = 3600.0
)

// record appends e to the log. A live plane's clock also moves through
// unlogged advances (Sync, usage and quote reads) and plain idle time,
// so e may lie more than MaxIngestSpan past the last entry: the gap is
// first bridged with snapshot entries at most half that span apart.
// Advance partitioning is invisible to replay, so a bridge changes no
// decision.
func (p *Plane) record(e LogEntry) {
	for e.VT > p.logVT+MaxIngestSpan {
		q := p.opts.Quantum
		p.logVT = math.Ceil((p.logVT+MaxIngestSpan/2)/q) * q
		p.log = append(p.log, LogEntry{Op: OpSnapshot, VT: p.logVT})
	}
	p.log = append(p.log, e)
	p.logVT = e.VT
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
// recorded the log — byte-identical. The returned
// plane is drained and its summary final. An entry past MaxIngestN
// requests or with a VT more than MaxIngestSpan past the entry before
// it is an error, so a hostile log cannot stall the replay.
func Replay(opts Options, entries []LogEntry) (*Plane, *Summary, error) {
	opts.WallNow = nil
	p, err := New(opts)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	last := 0.0 // the latest VT so far; a NaN VT quantizes to the clock
	for i, e := range entries {
		if e.VT > last+MaxIngestSpan {
			p.mu.Unlock()
			return nil, nil, fmt.Errorf("controlplane: log entry %d: vt %v is more than %v s past the entry before it", i, e.VT, MaxIngestSpan)
		}
		if e.VT > last {
			last = e.VT
		}
		switch e.Op {
		case OpTenant:
			if e.Config == nil {
				p.mu.Unlock()
				return nil, nil, fmt.Errorf("controlplane: log entry %d: tenant op without config", i)
			}
			if err := p.registerLocked(*e.Config, p.quantize(e.VT)); err != nil {
				p.mu.Unlock()
				return nil, nil, fmt.Errorf("controlplane: log entry %d: %w", i, err)
			}
		case OpIngest:
			if _, err := p.ingestLocked(e.Tenant, e.N, p.quantize(e.VT)); err != nil {
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
