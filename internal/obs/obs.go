// Package obs is PROTEAN's zero-dependency observability subsystem:
// deterministic tracing plus a metrics registry.
//
// The tracing half is a Tracer interface receiving typed,
// virtual-time-stamped lifecycle events — batch seal, dispatch, slice
// admission, execution start/end, slowdown recomputation, MIG
// reconfiguration, VM lease churn, autoscaler decisions — one per batch
// or per decision, never per request. Producers across the runtime
// (sim, gpu, queue, cluster, core, vm, autoscale) guard every emission
// behind Tracer.Enabled, and the default tracer is a no-op, so untraced
// runs pay nothing beyond one predictable branch per event site. Events
// carry only virtual-time timestamps (seconds on the sim.Sim clock —
// never the wall clock), so a trace of a seeded run is itself
// deterministic: exporting the same run twice yields byte-identical
// files, which makes a trace a byte-exact witness of a simulation.
//
// The metrics half (registry.go) is a counters/gauges/histograms
// registry rendered as Prometheus text exposition, used by proteand's
// GET /metrics endpoint.
//
// The package deliberately imports nothing above the standard library,
// so every layer of the runtime — including internal/sim itself — can
// depend on it without cycles.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies a lifecycle event.
type Kind uint8

// The event taxonomy. See DESIGN.md ("Observability subsystem") for
// which component emits each kind and with which fields populated.
const (
	// KindBatchSeal is a batch closing to new requests (full batch or
	// batching-window expiry). Carries the batch id, model, class,
	// member count (Requests) and oldest member's arrival (Value). No
	// event is emitted per request: the batch is the unit of tracing.
	KindBatchSeal Kind = iota + 1
	// KindDispatch is a sealed batch routed to a worker node.
	KindDispatch
	// KindColdStart is a batch paying a container cold start
	// (Value = boot seconds).
	KindColdStart
	// KindAdmit is a job entering a slice's admission queue.
	KindAdmit
	// KindExecStart is a job beginning execution on a slice.
	KindExecStart
	// KindExecEnd is a job completing (carries the engine's latency
	// breakdown as Phases).
	KindExecEnd
	// KindSlowdown is a slice recomputing its interference multipliers
	// after an occupancy change (Value = worst multiplier in force).
	KindSlowdown
	// KindReconfigBegin is a GPU starting a MIG geometry change: slices
	// stop admitting and drain (Detail = target geometry).
	KindReconfigBegin
	// KindReconfigEnd is the new geometry going live after the
	// reconfiguration downtime (Detail = installed geometry).
	KindReconfigEnd
	// KindVMLease is a VM lease attaching to a node slot
	// (Detail = "spot" or "on-demand").
	KindVMLease
	// KindVMNotice is a spot revocation notice (Value = eviction
	// deadline in virtual seconds).
	KindVMNotice
	// KindVMDown is a node going offline before a replacement attached.
	KindVMDown
	// KindAutoscale is a container-pool decision: prewarm or idle
	// expiry (Detail = verb, Value = container count).
	KindAutoscale
	// KindDrop is work abandoned because no node or slice could take it
	// (Requests = dropped request count).
	KindDrop
	// KindFaultInject is an injected fault firing (chaos subsystem).
	// Detail names the fault kind ("slice-failure", "reconfig-stuck",
	// "reconfig-abort", "straggler", "cold-start-failure",
	// "preemption-storm"); Value is kind-specific (repair window,
	// stretch factor, notice count).
	KindFaultInject
	// KindRetry is a failed operation re-attempted after backoff
	// (Value = backoff seconds, Requests = attempt number).
	KindRetry
	// KindRepair is a failed slice coming back online after its repair
	// window.
	KindRepair
	// KindOrphanRequeue is a batch orphaned by slice or node loss
	// re-entering dispatch (Requests = request count).
	KindOrphanRequeue
	// KindTenantAdmit is a live control-plane request admitted for a
	// tenant (Detail = tenant id, Requests = request count,
	// Value = predicted queueing delay in seconds).
	KindTenantAdmit
	// KindTenantReject is a live request rejected with 429 (Detail =
	// tenant id, Model = reject reason: "rate-limit" or "backlog").
	KindTenantReject
	// KindTenantShed is a best-effort live request shed under backlog
	// pressure (Detail = tenant id, Value = predicted delay).
	KindTenantShed
	// KindTenantSuspend is a tenant scaling to zero after its keep-warm
	// window expired (Detail = tenant id, Value = idle seconds,
	// Requests = containers reclaimed across nodes).
	KindTenantSuspend
	// KindTenantResume is a suspended tenant waking up (Detail = tenant
	// id, Model = wake reason: "request" or "prewarm-hint").
	KindTenantResume
	// KindUsageTick is one per-second metering rollup closing (Detail =
	// tenant id, Requests = requests completed in the window,
	// Value = GPU-slice-seconds accrued in the window).
	KindUsageTick
	// KindPriceTick is one provider's spot price advancing on a market
	// tick (Node = provider index, Detail = provider name,
	// Value = new spot $/hour).
	KindPriceTick
	// KindLeaseRequest is a two-phase lease acquisition opening
	// (Node = provider index, Batch = lease id, Detail = kind,
	// Model = consumer).
	KindLeaseRequest
	// KindLeaseBind is a consumer taking ownership of a ready lease
	// (Node = provider index, Batch = lease id, Model = consumer).
	KindLeaseBind
)

// kindNames indexes Kind.String; order must match the constants.
var kindNames = [...]string{
	KindBatchSeal:     "batch-seal",
	KindDispatch:      "dispatch",
	KindColdStart:     "cold-start",
	KindAdmit:         "admit",
	KindExecStart:     "exec-start",
	KindExecEnd:       "exec-end",
	KindSlowdown:      "slowdown",
	KindReconfigBegin: "reconfig-begin",
	KindReconfigEnd:   "reconfig-end",
	KindVMLease:       "vm-lease",
	KindVMNotice:      "vm-notice",
	KindVMDown:        "vm-down",
	KindAutoscale:     "autoscale",
	KindDrop:          "drop",
	KindFaultInject:   "fault-inject",
	KindRetry:         "retry",
	KindRepair:        "repair",
	KindOrphanRequeue: "orphan-requeue",
	KindTenantAdmit:   "tenant-admit",
	KindTenantReject:  "tenant-reject",
	KindTenantShed:    "tenant-shed",
	KindTenantSuspend: "tenant-suspend",
	KindTenantResume:  "tenant-resume",
	KindUsageTick:     "usage-tick",
	KindPriceTick:     "price-tick",
	KindLeaseRequest:  "lease-request",
	KindLeaseBind:     "lease-bind",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON renders the kind as its string name (JSONL readability).
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Phases decomposes a job's end-to-end latency into the components
// plotted in Figures 2, 6 and 11 of the paper. The engine's
// gpu.Breakdown is this type; KindExecEnd events carry it.
type Phases struct {
	// Queue is time spent waiting before execution started, from the
	// job becoming ready on its node: the slice admission queue, and
	// the reconfiguration downtime of a displaced job.
	Queue float64 `json:"queueSeconds"`
	// ColdStart is container boot time attributed to the job.
	ColdStart float64 `json:"coldStartSeconds"`
	// MinPossible is the batch execution time on an idle full GPU (7g).
	MinPossible float64 `json:"minPossibleSeconds"`
	// Deficiency is the extra execution time caused by running on a
	// smaller slice (the resource deficiency effect).
	Deficiency float64 `json:"deficiencySeconds"`
	// Interference is the extra execution time caused by MPS
	// co-location (memory bandwidth contention).
	Interference float64 `json:"interferenceSeconds"`
}

// Total is the end-to-end latency the phases sum to.
func (p Phases) Total() float64 {
	return p.Queue + p.ColdStart + p.MinPossible + p.Deficiency + p.Interference
}

// Event is one traced lifecycle event. Unused fields hold their zero
// value (Node and Slice use -1 for "not applicable" since 0 is a valid
// index); At constructs an event with those sentinels in place.
type Event struct {
	// T is the virtual time in seconds.
	T float64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the worker node index (-1 when not node-scoped).
	Node int `json:"node"`
	// Slice is the MIG slice index on the node's GPU (-1 when not
	// slice-scoped).
	Slice int `json:"slice"`
	// Batch correlates events of one request batch (0 when none; ids
	// start at 1).
	Batch uint64 `json:"batch,omitempty"`
	// Model is the inference model involved, when any.
	Model string `json:"model,omitempty"`
	// Strict marks strict-SLO work.
	Strict bool `json:"strict,omitempty"`
	// Requests is the request count the event represents.
	Requests int `json:"requests,omitempty"`
	// Value is a kind-specific scalar (oldest member's arrival,
	// cold-start seconds, slowdown multiplier, eviction deadline,
	// expired-container count).
	Value float64 `json:"value,omitempty"`
	// Detail is a kind-specific label (geometry string, VM kind,
	// autoscale verb).
	Detail string `json:"detail,omitempty"`
	// Phases is the engine latency decomposition (KindExecEnd only).
	Phases *Phases `json:"phases,omitempty"`
}

// At returns an event at virtual time t with Node and Slice set to the
// -1 "not applicable" sentinel.
func At(t float64, k Kind) Event {
	return Event{T: t, Kind: k, Node: -1, Slice: -1}
}

// Tracer receives lifecycle events. Implementations must not block and
// must not read the wall clock; all timestamps are virtual.
type Tracer interface {
	// Enabled reports whether Emit records anything. Producers guard
	// event construction behind it so disabled tracing costs one branch.
	Enabled() bool
	// Emit records one event.
	Emit(ev Event)
}

// nop is the disabled tracer.
type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Emit(Event)    {}

// Nop returns the no-op tracer: Enabled is false and Emit discards.
func Nop() Tracer { return nop{} }

// Trace is a completed, labeled event stream from one simulation run.
type Trace struct {
	// Label names the run (scenario label or an assigned index).
	Label string `json:"label"`
	// Events holds the stream in emission order, which for a
	// deterministic simulation is itself deterministic.
	Events []Event `json:"events"`
}

// Collector is a Tracer recording events in memory. A collector belongs
// to one simulation run and is not safe for concurrent Emit — the
// discrete-event sim is single-goroutine, so no locking is needed; for
// many parallel runs give each its own collector via a TraceSet.
type Collector struct {
	label  string
	events []Event
}

// NewCollector returns an enabled collector labeled label.
func NewCollector(label string) *Collector {
	return &Collector{label: label}
}

// Enabled implements Tracer (always true).
func (c *Collector) Enabled() bool { return true }

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) { c.events = append(c.events, ev) }

// Len returns the number of recorded events.
func (c *Collector) Len() int { return len(c.events) }

// Trace returns the recorded stream. The events slice is shared, not
// copied; callers export after the run has finished.
func (c *Collector) Trace() Trace { return Trace{Label: c.label, Events: c.events} }

// TraceSet accumulates per-run collectors across a batch of scenarios.
// Collectors must be registered in a deterministic order (the parallel
// scenario runner registers them sequentially, by scenario index,
// before fanning out), so the merged export is byte-identical no matter
// how many workers executed the runs.
type TraceSet struct {
	mu   sync.Mutex
	cols []*Collector
}

// NewTraceSet returns an empty set.
func NewTraceSet() *TraceSet { return &TraceSet{} }

// NewCollector registers and returns the next run's collector. The
// label is prefixed with the registration index so merged traces stay
// unambiguous when scenario labels repeat across experiments.
func (ts *TraceSet) NewCollector(label string) *Collector {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if label == "" {
		label = "run"
	}
	c := NewCollector(fmt.Sprintf("%03d %s", len(ts.cols), label))
	ts.cols = append(ts.cols, c)
	return c
}

// Traces returns every registered run's trace in registration order.
// Call only after all runs have completed.
func (ts *TraceSet) Traces() []Trace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Trace, len(ts.cols))
	for i, c := range ts.cols {
		out[i] = c.Trace()
	}
	return out
}

// KindCounts tallies events by kind name — a quick trace fingerprint
// used by tests and the bench CLI's stderr summary.
func KindCounts(events []Event) map[string]int {
	out := make(map[string]int)
	for _, ev := range events {
		out[ev.Kind.String()]++
	}
	return out
}

// FormatKindCounts renders KindCounts in sorted order ("admit=3
// batch-seal=3 ...") for deterministic logging.
func FormatKindCounts(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, counts[name])
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
