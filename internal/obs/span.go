package obs

import "sort"

// Span is the assembled lifecycle of one request batch: the queueing,
// admission and execution phases the paper's latency decomposition
// (Figs. 2, 6, 11) is built from, reconciled against the execution
// engine's own breakdown.
//
// Timeline fields are virtual seconds; a zero value means the phase was
// never reached (e.g. a batch dropped before execution). The engine
// breakdown in Phases is authoritative for execution-time components;
// the event-derived times additionally expose waiting the engine cannot
// see (dispatch stalls, reconfiguration holds) — see GatewayQueue.
type Span struct {
	// Batch is the correlating batch id.
	Batch uint64 `json:"batch"`
	// Model is the batch's inference model.
	Model string `json:"model"`
	// Strict marks strict-SLO batches.
	Strict bool `json:"strict"`
	// Requests is the member request count.
	Requests int `json:"requests"`
	// Node is the worker that executed the batch (-1 if never
	// dispatched).
	Node int `json:"node"`
	// Slice is the MIG slice that executed the batch (-1 if never
	// admitted).
	Slice int `json:"slice"`
	// FirstArrival is the earliest member request's arrival.
	FirstArrival float64 `json:"firstArrival"`
	// Sealed is when the batch closed to new requests.
	Sealed float64 `json:"sealed"`
	// Admitted is when the job entered a slice's admission queue.
	Admitted float64 `json:"admitted"`
	// Started is when execution began.
	Started float64 `json:"started"`
	// Ended is when execution finished.
	Ended float64 `json:"ended"`
	// ColdStart is the container boot time the batch paid.
	ColdStart float64 `json:"coldStart"`
	// Phases is the engine's latency breakdown (valid once Ended > 0).
	Phases Phases `json:"phases"`
}

// Completed reports whether the batch finished executing.
func (s *Span) Completed() bool { return s.Ended > 0 }

// ExecTime is the observed execution duration (Started → Ended).
func (s *Span) ExecTime() float64 {
	if !s.Completed() {
		return 0
	}
	return s.Ended - s.Started
}

// GatewayQueue is the time between batch seal and slice admission not
// explained by the cold start: dispatch waits, held batches during
// reconfiguration, node outages. The engine's Phases.Queue only covers
// the slice admission queue, so the two together decompose all waiting.
func (s *Span) GatewayQueue() float64 {
	if s.Admitted <= 0 {
		return 0
	}
	q := s.Admitted - s.Sealed - s.ColdStart
	if q < 0 {
		return 0
	}
	return q
}

// Assemble builds per-batch spans from one run's event stream. Spans
// are returned sorted by batch id (ascending), which is also seal
// order, so the output is deterministic for a deterministic run.
// Events without a batch id (slowdown, reconfig, VM, autoscale) are
// ignored here — exporters render them separately.
func Assemble(events []Event) []*Span {
	byBatch := make(map[uint64]*Span)
	get := func(id uint64) *Span {
		sp, ok := byBatch[id]
		if !ok {
			sp = &Span{Batch: id, Node: -1, Slice: -1}
			byBatch[id] = sp
		}
		return sp
	}
	for _, ev := range events {
		if ev.Batch == 0 {
			continue
		}
		sp := get(ev.Batch)
		switch ev.Kind {
		case KindBatchSeal:
			sp.Sealed = ev.T
			sp.Model = ev.Model
			sp.Strict = ev.Strict
			sp.Requests = ev.Requests
			sp.FirstArrival = ev.Value
		case KindDispatch:
			sp.Node = ev.Node
		case KindColdStart:
			sp.ColdStart = ev.Value
		case KindAdmit:
			sp.Admitted = ev.T
			if ev.Node >= 0 {
				sp.Node = ev.Node
			}
			sp.Slice = ev.Slice
		case KindExecStart:
			sp.Started = ev.T
			sp.Slice = ev.Slice
		case KindExecEnd:
			sp.Ended = ev.T
			if ev.Phases != nil {
				sp.Phases = *ev.Phases
			}
		}
	}
	out := make([]*Span, 0, len(byBatch))
	for _, sp := range byBatch {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Batch < out[j].Batch })
	return out
}
