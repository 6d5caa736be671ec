// Live serving mode: instead of replaying a pre-generated trace in one
// shot (Run), the control plane arms the cluster with StartLive, feeds
// requests through Ingest as they arrive on the (quantized) virtual
// clock, advances the simulation with AdvanceTo, and finally freezes
// and drains it with Drain. Between advances — always root context —
// it reads Backlog for admission decisions and CollectLive for the
// completion and drop records buffered since the last read.
package cluster

import (
	"errors"

	"protean/internal/metrics"
	"protean/internal/queue"
	"protean/internal/trace"
)

// Completion is one finished batch as reported to the live serving
// layer: which slice profile executed it for how long (usage metering)
// and each member request's latency, queueing delay and tenant.
type Completion struct {
	// Time is the virtual completion time.
	Time float64
	// Profile is the MIG slice profile that executed the batch ("7g",
	// "4g", ...), the unit usage is metered in.
	Profile string
	// ExecSeconds is the slice occupancy (execution start to finish).
	ExecSeconds float64
	// Rows holds one row per member request.
	Rows []metrics.BatchRow
}

// DropRecord is live work abandoned by a node (no capacity, fault
// retry budget exhausted, or best-effort shed under fault pressure),
// attributed to one tenant.
type DropRecord struct {
	// Time is the virtual drop time.
	Time float64
	// Node is the worker that dropped the work.
	Node int
	// Tenant is the owning tenant id ("" when unattributable).
	Tenant string
	// Requests is the number of requests lost.
	Requests int
}

// StartLive arms the cluster for incremental serving: the VM fleet (if
// any), the chaos schedule, and the dispatch/monitor tickers start, and
// completion and drop records are buffered for CollectLive. The caller
// then drives virtual time with AdvanceTo and ends the session with
// Drain.
//
// The serving layer keeps its own per-tenant samples from the
// completion records, so a live cluster records none: Drain's
// Result.Recorder is empty, and its Availability counts the work.
func (c *Cluster) StartLive() error {
	if c.live {
		return errors.New("cluster: StartLive called twice")
	}
	c.live = true
	if c.fleet != nil {
		if err := c.fleet.Start(); err != nil {
			return err
		}
	}
	return c.startControl()
}

// Ingest feeds one live request into the gateway batcher. It must run
// in root context between advances (the control plane serializes all
// ingest). The request's Arrival must equal the cluster's current
// virtual time.
func (c *Cluster) Ingest(req trace.Request) error {
	if !c.live {
		return errors.New("cluster: Ingest before StartLive")
	}
	c.offered++
	if err := c.batcher.Add(req); err != nil {
		c.dropped++
		return err
	}
	return nil
}

// AdvanceTo runs the simulation to virtual time t (a no-op when t is
// not ahead of the clock). The clock reads t on return.
func (c *Cluster) AdvanceTo(t float64) error {
	if !c.live {
		return errors.New("cluster: AdvanceTo before StartLive")
	}
	return c.sim.RunUntil(t)
}

// Drain freezes a live cluster — no more ingest — drains all in-flight
// work, and returns the final Result. The session cannot be restarted.
func (c *Cluster) Drain() (*Result, error) {
	if !c.live {
		return nil, errors.New("cluster: Drain before StartLive")
	}
	return c.drainAll(c.sim.Now())
}

// BacklogStats summarizes queued-but-unfinished work, the admission
// controller's view of system pressure.
type BacklogStats struct {
	// GatewayRequests counts requests waiting in unsealed batches.
	GatewayRequests int
	// SealedRequests counts requests in sealed batches awaiting the next
	// dispatch quantum.
	SealedRequests int
	// PendingRequests counts requests in batches that found no available
	// node yet.
	PendingRequests int
	// OutstandingRequests counts requests accepted by nodes and not yet
	// completed (queued on slices, executing, or paying cold starts).
	OutstandingRequests int
}

// Total returns every queued-but-unfinished request.
func (b BacklogStats) Total() int {
	return b.GatewayRequests + b.SealedRequests + b.PendingRequests + b.OutstandingRequests
}

// Backlog reports the current backlog. Root context only.
func (c *Cluster) Backlog() BacklogStats {
	st := BacklogStats{GatewayRequests: c.batcher.Pending()}
	for _, b := range c.sealed {
		st.SealedRequests += b.Size()
	}
	for _, b := range c.pendingGlobal {
		st.PendingRequests += b.Size()
	}
	for _, n := range c.nodes {
		st.OutstandingRequests += n.outstandingReqs
	}
	return st
}

// Nodes returns the worker count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// WarmContainers returns the number of live containers (busy + idle)
// for a model across all nodes.
func (c *Cluster) WarmContainers(modelName string) int {
	n := 0
	for _, nd := range c.nodes {
		n += nd.scaler.Warm(modelName)
	}
	return n
}

// DrainModel reclaims every idle warm container for a model on every
// node — the scale-to-zero hook. It returns the number of containers
// reclaimed. Root context only.
func (c *Cluster) DrainModel(modelName string) int {
	total := 0
	for _, nd := range c.nodes {
		total += nd.scaler.Drain(modelName)
	}
	return total
}

// PrewarmModel provisions count idle warm containers for a model on
// every node — the pre-warm hint hook. Root context only.
func (c *Cluster) PrewarmModel(modelName string, count int) {
	for _, nd := range c.nodes {
		nd.scaler.Prewarm(modelName, count)
	}
}

// CollectLive hands over the completion and drop records buffered
// since the last call. Each list is in event order, so completions are
// ordered by (time, node): one timer heap runs every lane, and node
// lanes rank in node order at one instant. The order is a pure function
// of the event timestamps. The returned slices are the caller's. Root
// context only.
func (c *Cluster) CollectLive() ([]Completion, []DropRecord) {
	comps, drops := c.done, c.drops
	c.done, c.drops = nil, nil
	return comps, drops
}

// bufferDrop records a dropped batch against its member tenants, one
// DropRecord per tenant run in arrival order (batches are single-model
// but may mix tenants).
func (n *node) bufferDrop(b *queue.Batch) {
	c := n.cluster
	if !c.live || b.Size() == 0 {
		return
	}
	cur := DropRecord{Time: n.sim.Now(), Node: n.id, Tenant: b.Tenant(0)}
	for i := range b.Size() {
		if tenant := b.Tenant(i); tenant != cur.Tenant {
			c.drops = append(c.drops, cur)
			cur = DropRecord{Time: cur.Time, Node: n.id, Tenant: tenant}
		}
		cur.Requests++
	}
	c.drops = append(c.drops, cur)
}
