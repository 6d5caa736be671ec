// Live serving mode: instead of replaying a pre-generated trace in one
// shot (Run), the control plane arms the cluster with StartLive, feeds
// requests through Ingest as they arrive on the (quantized) virtual
// clock, advances the simulation with AdvanceTo, and finally freezes
// and drains it with Drain. Between advances — always root context —
// it reads Backlog for admission decisions and CollectLive for the
// completion and drop records nodes buffered on their lanes.
package cluster

import (
	"errors"
	"sort"

	"protean/internal/metrics"
	"protean/internal/trace"
)

// Completion is one finished batch as reported to the live serving
// layer: which slice profile executed it for how long (usage metering)
// and the per-request latency samples, tagged with their tenants.
type Completion struct {
	// Time is the virtual completion time.
	Time float64
	// Node is the worker that executed the batch.
	Node int
	// Model is the invoked model's name.
	Model string
	// Profile is the MIG slice profile that executed the batch ("7g",
	// "4g", ...), the unit usage is metered in.
	Profile string
	// ExecSeconds is the slice occupancy (execution start to finish).
	ExecSeconds float64
	// ColdStart is the container boot time the batch paid (0 when warm).
	ColdStart float64
	// Samples are the per-request latency observations, one per member
	// request, each carrying its tenant tag.
	Samples []metrics.Sample
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
// nodes begin buffering completion and drop records. The caller then
// drives virtual time with AdvanceTo and ends the session with Drain.
//
// A live cluster's recorders run in sketch mode: the serving layer
// keeps its own exact per-tenant samples from the completion records,
// so the cluster-side copies would only grow with every request served.
// Drain's Result.Recorder therefore carries exact counts and SLO
// compliance but sketch-estimated quantiles.
func (c *Cluster) StartLive() error {
	if c.live {
		return errors.New("cluster: StartLive called twice")
	}
	c.live = true
	// Still empty: nothing completes before the session starts.
	c.recorder = metrics.NewSketchRecorder()
	for _, n := range c.nodes {
		n.recorder = *metrics.NewSketchRecorder()
	}
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
// not ahead of the clock). Every lane reads t as its clock on return
// (see sim.Sim.Now).
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

// CollectLive drains every node's buffered completion and drop records,
// merged into one stream ordered by (time, node) — each node's buffer
// is already time-ordered (lanes execute in time order), so a stable
// sort over the node-ordered concatenation realizes the merge. The
// order is a pure function of the event timestamps. Root context only.
func (c *Cluster) CollectLive() ([]Completion, []DropRecord) {
	var comps []Completion
	var drops []DropRecord
	for _, n := range c.nodes {
		comps = append(comps, n.doneBuf...)
		n.doneBuf = n.doneBuf[:0]
		drops = append(drops, n.dropBuf...)
		n.dropBuf = n.dropBuf[:0]
	}
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].Time < comps[j].Time })
	sort.SliceStable(drops, func(i, j int) bool { return drops[i].Time < drops[j].Time })
	return comps, drops
}

// bufferDrop records a dropped batch against its member tenants, one
// DropRecord per tenant run in arrival order (batches are single-model
// but may mix tenants). Lane context of the owning node.
func (n *node) bufferDrop(reqs []trace.Request) {
	if !n.cluster.live || len(reqs) == 0 {
		return
	}
	cur := DropRecord{Time: n.sim.Now(), Node: n.id, Tenant: reqs[0].Tenant}
	for _, r := range reqs {
		if r.Tenant != cur.Tenant {
			n.dropBuf = append(n.dropBuf, cur)
			cur = DropRecord{Time: cur.Time, Node: n.id, Tenant: r.Tenant}
		}
		cur.Requests++
	}
	n.dropBuf = append(n.dropBuf, cur)
}
