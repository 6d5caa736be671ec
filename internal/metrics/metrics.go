// Package metrics collects per-request latency observations and computes
// everything the paper's evaluation reports: SLO compliance, weighted
// latency percentiles, tail-latency breakdowns (Figures 2, 6,
// 11), throughput, and the statistical significance measures of §7
// (Welch's t-test, Cohen's d, confidence intervals).
//
// A Recorder runs in one of two modes. The default exact mode buffers
// every sample, which keeps goldens, grid cells, and statistical-test
// inputs byte-identical run to run. It stores a 24-byte row per sample
// and keeps the fields a run of consecutive samples shares (a cluster
// batch's model, class, SLO, weight, completion time and most of its
// breakdown) once per run; see DESIGN.md, "Exact-mode layout". Sketch
// mode (NewSketchRecorder) replaces the sample buffer with O(1)-memory
// per-(model, tenant, class) aggregates — streaming counters plus a
// deterministic quantile Sketch — for runs whose request volume would
// not fit in memory; see DESIGN.md, "Memory model at scale".
package metrics

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"protean/internal/gpu"
)

// Sample is one latency observation. A batch of N requests is recorded
// as one sample with Weight N.
type Sample struct {
	// Model is the invoked model's name.
	Model string
	// Tenant is the owning tenant id for live control-plane traffic
	// (empty for batch experiment runs).
	Tenant string
	// Strict marks samples from strict-SLO requests.
	Strict bool
	// Latency is the end-to-end request latency in seconds.
	Latency float64
	// SLO is the latency target for strict samples (0 for best effort).
	SLO float64
	// Breakdown decomposes the latency.
	Breakdown gpu.Breakdown
	// Completed is the virtual time the request finished (used to
	// restrict throughput to the in-trace window, excluding the final
	// drain).
	Completed float64
	// Weight is the number of requests this sample represents.
	Weight int
}

// row is one exact-mode sample's per-request fields: its latency, its
// queueing delay, and ids for its group and tenant. A sample's other
// fields live in the group record the row indexes, which a run of
// consecutive rows shares. A row holds no pointers, so the garbage
// collector never scans a sample buffer.
type row struct {
	Latency       float64
	Queue         float64
	group, tenant uint32
}

// group holds the fields a run of consecutive rows in one chunk shares:
// every Sample field but Latency, Tenant and Breakdown.Queue, with Model
// interned to an id. A cluster node records all the requests of a batch
// with one group.
type group struct {
	SLO, Completed float64
	// ColdStart, MinPossible, Deficiency and Interference are the
	// Breakdown terms other than Queue.
	ColdStart, MinPossible, Deficiency, Interference float64
	Weight                                           int
	model                                            uint32
	Strict                                           bool
}

// same reports whether g and o hold the same bits. Floats compare by
// bits, so -0.0 never joins a 0.0 group nor a NaN a number's, and every
// row reads back exactly the values it was recorded with.
func (g *group) same(o *group) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return g.model == o.model && g.Strict == o.Strict && g.Weight == o.Weight &&
		eq(g.SLO, o.SLO) && eq(g.Completed, o.Completed) && eq(g.ColdStart, o.ColdStart) &&
		eq(g.MinPossible, o.MinPossible) && eq(g.Deficiency, o.Deficiency) && eq(g.Interference, o.Interference)
}

// breakdown rebuilds a row's latency decomposition from its group and
// its own queueing delay.
func (g *group) breakdown(queue float64) gpu.Breakdown {
	return gpu.Breakdown{
		Queue:        queue,
		ColdStart:    g.ColdStart,
		MinPossible:  g.MinPossible,
		Deficiency:   g.Deficiency,
		Interference: g.Interference,
	}
}

// Exact-mode rows live in append-only chunks. A row's handle is
// chunkIndex<<chunkShift | offset, so handles ascend in storage order.
const (
	chunkShift = 10
	chunkRows  = 1 << chunkShift // 24 KiB of rows
	chunkMask  = chunkRows - 1
	// firstChunkRows is the capacity of a store's first chunk; each next
	// chunk of its own doubles up to chunkRows, so small recorders stay
	// small.
	firstChunkRows = 16
	// maxChunks keeps every handle inside latKey's uint32 position.
	maxChunks = 1 << (32 - chunkShift)
)

// nameTable holds the model and tenant names rows and groups refer to
// by id, in first-seen order; ids maps each name back. It is
// append-only, so an id, once handed out, names the same string forever.
type nameTable struct {
	names []string
	ids   map[string]uint32
}

// intern returns name's id, adding it if new. *last is the id this
// field interned last, and is checked before the map: consecutive
// samples mostly share their names.
func (t *nameTable) intern(name string, last *uint32) uint32 {
	if *last < uint32(len(t.names)) && t.names[*last] == name {
		return *last
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	*last = id
	return id
}

// sample rebuilds the public form of a row and its group, whose ids
// index t.
func (t *nameTable) sample(s *row, g *group) Sample {
	return Sample{
		Model:     t.names[g.model],
		Tenant:    t.names[s.tenant],
		Strict:    g.Strict,
		Latency:   s.Latency,
		SLO:       g.SLO,
		Breakdown: g.breakdown(s.Queue),
		Completed: g.Completed,
		Weight:    g.Weight,
	}
}

// chunk is a run of at most chunkRows rows, the groups they index and
// the name table their ids index. Rows and groups are never modified
// once written.
type chunk struct {
	rows   []row
	groups []group
	names  *nameTable
}

// clip limits c to its current length, so an append through either copy
// can never reach a row or group the other one sees.
func (c chunk) clip() chunk {
	c.rows = c.rows[:len(c.rows):len(c.rows)]
	c.groups = c.groups[:len(c.groups):len(c.groups)]
	return c
}

// appendChunk appends c to cs, refusing to outgrow the handle space.
func appendChunk(cs []chunk, c chunk) []chunk {
	if len(cs) >= maxChunks {
		panic("metrics: exact recorder exceeds its chunk limit")
	}
	return append(cs, c)
}

// latKey is one entry of the quantile index: a row's latency, handle
// and weight, so sorting and summing never load the row itself. w is 0
// for a weight too large for it; the row's group is read instead.
type latKey struct {
	lat float64
	pos uint32
	w   uint32
}

// Recorder accumulates samples. The zero value is an exact-mode
// recorder, ready to use. A Recorder is not safe for concurrent use,
// and recorders that share chunks (a parent and its views, a merge
// source and its destination) must not be used concurrently either.
//
// Filter and its derivatives (Strict, BestEffort, ForModel)
// return view recorders: clipped references to the parent's chunks plus
// one handle slice, never a sample copy. Views are snapshots. Rows are
// never modified once written, and a view cannot reach past the lengths
// its chunks had when it was taken, so samples the parent adds or merges
// later stay invisible to it and cost the parent no copy. Adding to or
// merging into a view first copies its visible rows into a store of its
// own, so the parent is never perturbed.
type Recorder struct {
	// chunks holds the rows in storage order. The recorder appends only
	// to a tail chunk indexing its own name table; chunks taken from
	// other recorders by Merge are clipped and read-only.
	chunks []chunk
	// names is the table this recorder interns into (nil until it
	// records a row of its own). lastModel and lastTenant are the ids
	// push interned last, which it tries before the table's map.
	names                 *nameTable
	lastModel, lastTenant uint32
	// view, when non-nil, restricts the recorder to these handles (a
	// filtered view over a parent's chunks).
	view []uint32
	// weightSum is the total weighted request count of the visible rows.
	weightSum int

	// byLat (sorted by latency, then handle) and cum (cumulative
	// weights in that order) are the quantile index, valid only while
	// sortedOK. Add/Merge invalidate it, so report generation sorts once
	// instead of once per quantile.
	byLat    []latKey
	cum      []float64
	sortedOK bool

	// sk switches the recorder into sketch mode (non-nil). skSel, when
	// additionally non-nil, restricts a sketch-mode view to a key
	// subset.
	sk    *sketchRec
	skSel []sketchKey
}

// sketchKey identifies one sketch-mode aggregate.
type sketchKey struct {
	model  string
	tenant string
	strict bool
}

// sketchAgg is the O(1)-memory replacement for one key's samples.
type sketchAgg struct {
	sk Sketch
	// n and weight count samples and weighted requests.
	n, weight int
	// latSum accumulates Latency·Weight for the mean.
	latSum float64
	// attTotal/attMet count weighted samples with a latency target
	// (SLO > 0) and those meeting it.
	attTotal, attMet int
	// strictW/strictMet count weighted strict samples and those with
	// Latency <= SLO.
	strictW, strictMet int
}

// sketchRec is the shared state of a sketch-mode recorder and its views.
type sketchRec struct {
	aggs  map[sketchKey]*sketchAgg
	keys  []sketchKey // sorted key cache
	dirty bool
}

func (s *sketchRec) agg(k sketchKey) *sketchAgg {
	a, ok := s.aggs[k]
	if !ok {
		a = &sketchAgg{}
		s.aggs[k] = a
		s.dirty = true
	}
	return a
}

// sortedKeys returns every aggregate key in a fixed (model, tenant,
// strict) order, so iteration — including float summation — is
// deterministic.
func (s *sketchRec) sortedKeys() []sketchKey {
	if s.dirty || s.keys == nil {
		s.keys = s.keys[:0]
		for k := range s.aggs {
			s.keys = append(s.keys, k)
		}
		sort.Slice(s.keys, func(i, j int) bool {
			a, b := s.keys[i], s.keys[j]
			if a.model != b.model {
				return a.model < b.model
			}
			if a.tenant != b.tenant {
				return a.tenant < b.tenant
			}
			return a.strict && !b.strict
		})
		s.dirty = false
	}
	return s.keys
}

// NewSketchRecorder returns a recorder in sketch mode: per-(model,
// tenant, class) streaming aggregates instead of a sample buffer.
// Quantiles come from a deterministic Sketch with relative error at
// most SketchAlpha; means, SLO compliance, attainment and request
// counts are exact. Per-sample state is not retained, so
// BreakdownAtPercentile returns a zero breakdown, Latencies returns
// nil, and Filter predicates see one representative sample per
// aggregate (Model, Tenant, Strict and SLO populated — enough for
// every class/model/tenant filter; Completed-based horizon filters
// keep everything).
func NewSketchRecorder() *Recorder {
	return &Recorder{sk: &sketchRec{aggs: make(map[sketchKey]*sketchAgg)}}
}

// Sketching reports whether the recorder is in sketch mode.
//
//lint:ignore deadcode cluster's TestLiveDrainRecorderSketches checks a live drain returns a sketch
func (r *Recorder) Sketching() bool { return r.sk != nil }

// materialize gives a view a store of its own (exact mode only),
// copying and re-interning its visible rows, so a mutation never
// touches the chunks it shares.
func (r *Recorder) materialize() {
	if r.view == nil {
		return
	}
	v := *r
	*r = Recorder{}
	r.appendRows(&v)
}

// push appends one sample to r's own tail chunk, interning its names
// into r's table. The row joins the chunk's last group when g matches it
// and starts a new group otherwise.
func (r *Recorder) push(latency, queue float64, g group, model, tenant string) {
	if r.names == nil {
		r.names = &nameTable{ids: make(map[string]uint32)}
	}
	g.model = r.names.intern(model, &r.lastModel)
	s := row{Latency: latency, Queue: queue, tenant: r.names.intern(tenant, &r.lastTenant)}
	c := r.tail()
	if n := len(c.groups); n == 0 || !c.groups[n-1].same(&g) {
		c.groups = append(c.groups, g)
	}
	s.group = uint32(len(c.groups) - 1)
	c.rows = append(c.rows, s)
	r.weightSum += g.Weight
	r.sortedOK = false
}

// tail returns the chunk push appends to: the last chunk while it
// indexes r's own table and has room, else a new one. A recorder's
// first chunk holds firstChunkRows rows and each next chunk of its own
// twice the last, up to chunkRows, so small recorders stay small and no
// row ever moves. (A clipped chunk of r's own merged back into r is
// full, so it too is followed by a new chunk.) A new chunk reserves
// groups at the last chunk's rate of groups per row: growing them by
// append would cost a stream of distinct samples 232 bytes per sample
// instead of 88.
func (r *Recorder) tail() *chunk {
	size, groups := chunkRows, 0
	if n := len(r.chunks); n == 0 {
		size = firstChunkRows
	} else if c := &r.chunks[n-1]; c.names == r.names {
		if len(c.rows) < cap(c.rows) {
			return c
		}
		size = min(2*len(c.rows), chunkRows)
		groups = len(c.groups) * size / len(c.rows)
	}
	r.chunks = appendChunk(r.chunks, chunk{rows: make([]row, 0, size), groups: make([]group, 0, groups), names: r.names})
	return &r.chunks[len(r.chunks)-1]
}

// at returns the row a handle addresses and its group.
func (r *Recorder) at(h uint32) (*row, *group) {
	c := &r.chunks[h>>chunkShift]
	s := &c.rows[h&chunkMask]
	return s, &c.groups[s.group]
}

// Add records a sample. Zero weights are normalized to 1.
func (r *Recorder) Add(s Sample) {
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if r.sk != nil {
		if r.skSel != nil {
			panic("metrics: Add on a sketch-mode view recorder")
		}
		r.addSketch(s)
		return
	}
	r.materialize()
	b := &s.Breakdown
	r.push(s.Latency, b.Queue, group{
		SLO:          s.SLO,
		Completed:    s.Completed,
		ColdStart:    b.ColdStart,
		MinPossible:  b.MinPossible,
		Deficiency:   b.Deficiency,
		Interference: b.Interference,
		Weight:       s.Weight,
		Strict:       s.Strict,
	}, s.Model, s.Tenant)
}

func (r *Recorder) addSketch(s Sample) {
	a := r.sk.agg(sketchKey{model: s.Model, tenant: s.Tenant, strict: s.Strict})
	a.sk.Add(s.Latency, s.Weight)
	a.n++
	a.weight += s.Weight
	a.latSum += s.Latency * float64(s.Weight)
	if s.SLO > 0 {
		a.attTotal += s.Weight
		if s.Latency <= s.SLO {
			a.attMet += s.Weight
		}
	}
	if s.Strict {
		a.strictW += s.Weight
		if s.Latency <= s.SLO {
			a.strictMet += s.Weight
		}
	}
	r.weightSum += s.Weight
}

// Merge folds other recorders' samples into r, in argument order; nil
// recorders are skipped. An exact recorder that is not a view is merged
// by taking clipped references to its chunks, with no row copy, so
// merging whole recorders costs O(chunks); a view's visible rows are
// copied. Merging a sketch-mode recorder into an exact one (or vice
// versa) converts sample-by-sample where possible; sketch→exact is
// impossible (the samples are gone) and panics.
func (r *Recorder) Merge(others ...*Recorder) {
	if r.sk != nil {
		if r.skSel != nil {
			panic("metrics: Merge on a sketch-mode view recorder")
		}
		for _, o := range others {
			if o != nil {
				r.mergeSketch(o)
			}
		}
		return
	}
	for _, o := range others {
		if o != nil && o.sk != nil {
			panic("metrics: cannot merge a sketch-mode recorder into an exact recorder")
		}
	}
	r.materialize()
	for _, o := range others {
		switch {
		case o == nil:
		case o.view != nil:
			r.appendRows(o)
		default:
			// The range reads o.chunks once, so r.Merge(r) takes r's
			// chunks as they were before the call.
			for _, c := range o.chunks {
				r.chunks = appendChunk(r.chunks, c.clip())
			}
			r.weightSum += o.weightSum
		}
	}
	r.sortedOK = false
}

// appendRows copies o's visible rows onto r's own chunks, regrouping
// them as push would have. Names are re-interned as rows reach them, so
// r's table stays in first-seen order.
func (r *Recorder) appendRows(o *Recorder) {
	o.eachExact(func(_ uint32, s *row, g *group, t *nameTable) {
		r.push(s.Latency, s.Queue, *g, t.names[g.model], t.names[s.tenant])
	})
}

// mergeSketch folds one recorder into sketch-mode r.
func (r *Recorder) mergeSketch(other *Recorder) {
	if other.sk == nil {
		other.eachExact(func(_ uint32, s *row, g *group, t *nameTable) { r.addSketch(t.sample(s, g)) })
		return
	}
	for _, k := range other.sk.sortedKeys() {
		if !other.selected(k) {
			continue
		}
		oa := other.sk.aggs[k]
		a := r.sk.agg(k)
		a.sk.Merge(&oa.sk)
		a.n += oa.n
		a.weight += oa.weight
		a.latSum += oa.latSum
		a.attTotal += oa.attTotal
		a.attMet += oa.attMet
		a.strictW += oa.strictW
		a.strictMet += oa.strictMet
		r.weightSum += oa.weight
	}
}

// exactLen is the number of samples visible through this recorder.
func (r *Recorder) exactLen() int {
	if r.view != nil {
		return len(r.view)
	}
	n := 0
	for _, c := range r.chunks {
		n += len(c.rows)
	}
	return n
}

// eachExact visits the recorder's visible rows in storage order (exact
// mode), with each row's handle, its group and the name table their ids
// index.
func (r *Recorder) eachExact(fn func(h uint32, s *row, g *group, t *nameTable)) {
	if r.view != nil {
		for _, h := range r.view {
			c := &r.chunks[h>>chunkShift]
			s := &c.rows[h&chunkMask]
			fn(h, s, &c.groups[s.group], c.names)
		}
		return
	}
	for ci := range r.chunks {
		c := &r.chunks[ci]
		for off := range c.rows {
			s := &c.rows[off]
			fn(uint32(ci<<chunkShift|off), s, &c.groups[s.group], c.names)
		}
	}
}

// selected reports whether a sketch key is visible through this
// recorder (views carry a key subset).
func (r *Recorder) selected(k sketchKey) bool {
	if r.skSel == nil {
		return true
	}
	for _, s := range r.skSel {
		if s == k {
			return true
		}
	}
	return false
}

// skKeys returns the sketch keys visible through this recorder, sorted.
func (r *Recorder) skKeys() []sketchKey {
	if r.skSel != nil {
		return r.skSel
	}
	return r.sk.sortedKeys()
}

// Len returns the number of samples (not weighted).
func (r *Recorder) Len() int {
	if r.sk != nil {
		n := 0
		for _, k := range r.skKeys() {
			n += r.sk.aggs[k].n
		}
		return n
	}
	return r.exactLen()
}

// Requests returns the total weighted request count.
func (r *Recorder) Requests() int {
	if r.sk != nil {
		n := 0
		for _, k := range r.skKeys() {
			n += r.sk.aggs[k].weight
		}
		return n
	}
	return r.weightSum
}

// representative builds the stand-in sample sketch-mode Filter
// predicates evaluate: identity fields are populated, per-sample
// measurements are zero.
func representative(k sketchKey, a *sketchAgg) Sample {
	s := Sample{Model: k.model, Tenant: k.tenant, Strict: k.strict, Weight: a.weight}
	if a.attTotal > 0 {
		s.SLO = 1 // flag "has a latency target" for SLO > 0 predicates
	}
	return s
}

// Filter returns a recorder holding samples matching pred. In exact
// mode this is a view over clipped references to r's chunks (no sample
// copies); in sketch mode the predicate selects whole aggregates via
// one representative sample each.
func (r *Recorder) Filter(pred func(Sample) bool) *Recorder {
	if r.sk != nil {
		sel := make([]sketchKey, 0, len(r.skKeys()))
		for _, k := range r.skKeys() {
			if pred(representative(k, r.sk.aggs[k])) {
				sel = append(sel, k)
			}
		}
		return &Recorder{sk: r.sk, skSel: sel}
	}
	// A subset never outgrows r, so its handles are sized up front.
	out := &Recorder{chunks: make([]chunk, len(r.chunks)), view: make([]uint32, 0, r.exactLen())}
	for i, c := range r.chunks {
		out.chunks[i] = c.clip()
	}
	r.eachExact(func(h uint32, s *row, g *group, t *nameTable) {
		if pred(t.sample(s, g)) {
			out.view = append(out.view, h)
			out.weightSum += g.Weight
		}
	})
	return out
}

// Strict returns the strict-sample subset.
func (r *Recorder) Strict() *Recorder {
	return r.Filter(func(s Sample) bool { return s.Strict })
}

// BestEffort returns the best-effort subset.
func (r *Recorder) BestEffort() *Recorder {
	return r.Filter(func(s Sample) bool { return !s.Strict })
}

// ForModel returns samples of one model.
func (r *Recorder) ForModel(name string) *Recorder {
	return r.Filter(func(s Sample) bool { return s.Model == name })
}

// SLOCompliance returns the weighted fraction of strict samples meeting
// their SLO. It returns NaN when there are no strict samples.
func (r *Recorder) SLOCompliance() float64 {
	total, met := 0, 0
	if r.sk != nil {
		for _, k := range r.skKeys() {
			a := r.sk.aggs[k]
			total += a.strictW
			met += a.strictMet
		}
	} else {
		r.eachExact(func(_ uint32, s *row, g *group, _ *nameTable) {
			if !g.Strict {
				return
			}
			total += g.Weight
			if s.Latency <= g.SLO {
				met += g.Weight
			}
		})
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(met) / float64(total)
}

// Mean returns the weighted mean latency (NaN when empty). In sketch
// mode the mean is exact: per-aggregate sums accumulate in arrival
// order and merge in the fixed sorted key order.
func (r *Recorder) Mean() float64 {
	sum, n := 0.0, 0
	if r.sk != nil {
		for _, k := range r.skKeys() {
			a := r.sk.aggs[k]
			sum += a.latSum
			n += a.weight
		}
	} else {
		r.eachExact(func(_ uint32, s *row, g *group, _ *nameTable) {
			sum += s.Latency * float64(g.Weight)
			n += g.Weight
		})
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// quantileIndex returns the visible rows' keys sorted by (latency,
// handle) and their cumulative weights in that order, cached behind a
// dirty flag: report generation asks for many quantiles over the same
// frozen recorder.
//
// Handles are unique, so (latency, handle) is a total order and any
// sort reproduces exactly the order a stable sort by latency alone
// gives (visible handles ascend in storage order). Latencies compare
// with < and >, so -0.0 and 0.0 tie and fall back to the handle, as
// they do in a stable sort. cum is summed in sorted order, one float64
// weight at a time, as a linear scan would sum it.
func (r *Recorder) quantileIndex() ([]latKey, []float64) {
	if r.sortedOK {
		return r.byLat, r.cum
	}
	keys := make([]latKey, 0, r.exactLen())
	r.eachExact(func(h uint32, s *row, g *group, _ *nameTable) {
		k := latKey{lat: s.Latency, pos: h}
		if uint64(g.Weight) <= math.MaxUint32 {
			k.w = uint32(g.Weight)
		}
		keys = append(keys, k)
	})
	slices.SortFunc(keys, func(a, b latKey) int {
		switch {
		case a.lat < b.lat:
			return -1
		case a.lat > b.lat:
			return 1
		}
		return cmp.Compare(a.pos, b.pos)
	})
	cum := make([]float64, len(keys))
	c := 0.0
	for i, k := range keys {
		w := int(k.w)
		if w == 0 {
			_, g := r.at(k.pos)
			w = g.Weight
		}
		c += float64(w)
		cum[i] = c
	}
	r.byLat, r.cum = keys, cum
	r.sortedOK = true
	return keys, cum
}

// mergedSketch folds the visible aggregates' sketches into one (sketch
// mode). Bucket counts are integers, so the merge order cannot matter.
func (r *Recorder) mergedSketch() *Sketch {
	keys := r.skKeys()
	if len(keys) == 1 {
		return &r.sk.aggs[keys[0]].sk
	}
	merged := &Sketch{}
	for _, k := range keys {
		merged.Merge(&r.sk.aggs[k].sk)
	}
	return merged
}

// sampleAtPercentile returns the weighted p-th percentile sample's row
// and group (0 < p <= 100), or nils when the recorder is empty.
func (r *Recorder) sampleAtPercentile(p float64) (*row, *group) {
	if r.exactLen() == 0 {
		return nil, nil
	}
	keys, cum := r.quantileIndex()
	target := p / 100 * float64(r.Requests())
	// cum never decreases, so the first entry reaching target is the one
	// a linear scan stops at; none reaching it means the last.
	i := min(sort.SearchFloat64s(cum, target), len(cum)-1)
	return r.at(keys[i].pos)
}

// Percentile returns the weighted p-th percentile latency (NaN when
// empty). P99 tail latency is Percentile(99). In sketch mode the value
// is the deterministic sketch estimate, within SketchAlpha relative
// error of the exact weighted percentile.
func (r *Recorder) Percentile(p float64) float64 {
	if r.sk != nil {
		return r.mergedSketch().Quantile(p)
	}
	s, _ := r.sampleAtPercentile(p)
	if s == nil {
		return math.NaN()
	}
	return s.Latency
}

// BreakdownAtPercentile returns the latency decomposition of the sample
// sitting at the weighted p-th percentile — how the paper plots "P99
// latency breakdown". Sketch-mode recorders retain no per-sample
// breakdowns and return the zero decomposition.
func (r *Recorder) BreakdownAtPercentile(p float64) gpu.Breakdown {
	if r.sk != nil {
		return gpu.Breakdown{}
	}
	s, g := r.sampleAtPercentile(p)
	if s == nil {
		return gpu.Breakdown{}
	}
	return g.breakdown(s.Queue)
}

// Latencies returns the raw latency list, one value per sample. Used by
// the statistical tests. Sketch-mode recorders retain no raw values and
// return nil.
func (r *Recorder) Latencies() []float64 {
	if r.sk != nil {
		return nil
	}
	out := make([]float64, 0, r.exactLen())
	r.eachExact(func(_ uint32, s *row, _ *group, _ *nameTable) { out = append(out, s.Latency) })
	return out
}

// completedWithin restricts to requests that finished by the horizon
// (excluding the post-trace drain). A zero horizon keeps everything.
// Sketch-mode recorders retain no completion times; the view keeps
// every aggregate (throughput then includes drain-completed work).
func (r *Recorder) completedWithin(horizon float64) *Recorder {
	if horizon <= 0 {
		return r
	}
	return r.Filter(func(s Sample) bool { return s.Completed <= horizon })
}

// Throughput returns strict requests served per GPU per second within
// the horizon — the metric of Figure 10a. Backlogged schemes that only
// finish work during the final drain score lower, as on a real cluster.
func (r *Recorder) Throughput(duration float64, gpus int, horizon float64) float64 {
	if duration <= 0 || gpus <= 0 {
		return 0
	}
	return float64(r.completedWithin(horizon).Strict().Requests()) / duration / float64(gpus)
}

// TotalThroughput returns all requests served per GPU per second within
// the horizon.
func (r *Recorder) TotalThroughput(duration float64, gpus int, horizon float64) float64 {
	if duration <= 0 || gpus <= 0 {
		return 0
	}
	return float64(r.completedWithin(horizon).Requests()) / duration / float64(gpus)
}

// Summary bundles the headline numbers for one scheme/model cell.
type Summary struct {
	SLOCompliance float64       `json:"sloCompliance"`
	P50           float64       `json:"p50Seconds"`
	P99           float64       `json:"p99Seconds"`
	Mean          float64       `json:"meanSeconds"`
	P99Breakdown  gpu.Breakdown `json:"p99Breakdown"`
	Requests      int           `json:"requests"`
}

// Summarize computes the standard summary over the recorder's strict
// samples (the paper's headline metrics are strict-only).
func (r *Recorder) Summarize() Summary {
	strict := r.Strict()
	return Summary{
		SLOCompliance: r.SLOCompliance(),
		P50:           strict.Percentile(50),
		P99:           strict.Percentile(99),
		Mean:          strict.Mean(),
		P99Breakdown:  strict.BreakdownAtPercentile(99),
		Requests:      strict.Requests(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("SLO %.2f%%, P50 %.1fms, P99 %.1fms over %d reqs",
		s.SLOCompliance*100, s.P50*1000, s.P99*1000, s.Requests)
}

// ModelStats is one model's row in a Snapshot.
type ModelStats struct {
	// Model is the model name.
	Model string `json:"model"`
	// Requests is the weighted request count across both classes.
	Requests int `json:"requests"`
	// StrictRequests is the weighted strict-class request count.
	StrictRequests int `json:"strictRequests"`
	// P50 and P99 are weighted latency percentiles over all the model's
	// samples, in seconds.
	P50 float64 `json:"p50Seconds"`
	P99 float64 `json:"p99Seconds"`
	// SLOCompliance is the weighted fraction of strict requests meeting
	// their SLO; 0 when StrictRequests is 0 (kept finite so snapshots
	// survive JSON encoding — check StrictRequests to distinguish "none
	// measured" from "all missed").
	SLOCompliance float64 `json:"sloCompliance"`
}

// Snapshot summarizes the recorder per model, sorted by model name, for
// export surfaces (proteand's /metrics and simulate responses). Unlike
// Summarize, percentiles span both request classes — a snapshot is an
// operational view of everything served, not the paper's strict-only
// headline.
func (r *Recorder) Snapshot() []ModelStats {
	names := make(map[string]bool)
	if r.sk != nil {
		for _, k := range r.skKeys() {
			names[k.model] = true
		}
	} else {
		r.eachExact(func(_ uint32, _ *row, g *group, t *nameTable) { names[t.names[g.model]] = true })
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	out := make([]ModelStats, 0, len(sorted))
	for _, name := range sorted {
		sub := r.ForModel(name)
		strict := sub.Strict()
		st := ModelStats{
			Model:          name,
			Requests:       sub.Requests(),
			StrictRequests: strict.Requests(),
			P50:            sub.Percentile(50),
			P99:            sub.Percentile(99),
		}
		if st.StrictRequests > 0 {
			st.SLOCompliance = sub.SLOCompliance()
		}
		out = append(out, st)
	}
	return out
}

// ErrTooFewSamples reports statistics requested on degenerate inputs.
var ErrTooFewSamples = errors.New("metrics: too few samples")
