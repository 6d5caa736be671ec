// Package metrics collects per-request latency observations and computes
// everything the paper's evaluation reports: SLO compliance, weighted
// latency percentiles and CDFs, tail-latency breakdowns (Figures 2, 6,
// 11), throughput, and the statistical significance measures of §7
// (Welch's t-test, Cohen's d, confidence intervals).
//
// A Recorder runs in one of two modes. The default exact mode buffers
// every sample, which keeps goldens, grid cells, and statistical-test
// inputs byte-identical run to run. Sketch mode (NewSketchRecorder)
// replaces the sample buffer with O(1)-memory per-(model, tenant,
// class) aggregates — streaming counters plus a deterministic quantile
// Sketch — for runs whose request volume would not fit in memory; see
// DESIGN.md, "Memory model at scale".
package metrics

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
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

// row is one exact-mode sample: Sample's fields with Model and Tenant
// interned to ids in the recorder's name table. It holds no pointers,
// so the garbage collector never scans a sample buffer.
type row struct {
	model, tenant uint32
	Strict        bool
	Latency       float64
	SLO           float64
	Breakdown     gpu.Breakdown
	Completed     float64
	Weight        int
}

// latKey is one entry of the quantile index: a row's latency, position
// and weight, so sorting and summing never load the row itself. w is 0
// for a weight too large for it; the row is read instead.
type latKey struct {
	lat float64
	pos uint32
	w   uint32
}

// Recorder accumulates samples. The zero value is an exact-mode
// recorder, ready to use.
//
// Filter and its derivatives (Strict, BestEffort, ForModel, ForTenant)
// return view recorders sharing the parent's backing: a view costs one
// index slice, never a sample copy. Views are snapshots — samples added
// to the parent afterwards are not visible through an existing view —
// and mutating a view (Add/Merge) first materialises a private copy so
// the parent is never perturbed.
type Recorder struct {
	rows []row
	// names holds the model and tenant names rows refer to by id, in
	// first-seen order; ids maps each name back. Views share both with
	// the parent's backing, copy-on-write like rows.
	names []string
	ids   map[string]uint32
	// view, when non-nil, restricts the recorder to these positions of
	// rows (a filtered view over a parent's backing).
	view []int
	// shared marks the rows backing as shared with another recorder
	// (a parent or its views); mutation must copy first.
	shared bool
	// weightSum is the total weighted request count of the visible rows.
	weightSum int

	// byLat (sorted by latency, then position) and cum (cumulative
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
func (r *Recorder) Sketching() bool { return r.sk != nil }

// materialize gives a view or shared recorder its own private backing
// (exact mode only), so a mutation never touches a parent's samples.
func (r *Recorder) materialize() {
	if !r.shared && r.view == nil {
		return
	}
	own := make([]row, 0, r.exactLen())
	if r.view != nil {
		for _, i := range r.view {
			own = append(own, r.rows[i])
		}
	} else {
		own = append(own, r.rows...)
	}
	r.rows = own
	r.names = slices.Clone(r.names)
	r.ids = maps.Clone(r.ids)
	r.view = nil
	r.shared = false
	r.sortedOK = false
	r.byLat, r.cum = nil, nil
}

// intern returns name's id in the name table, adding it if new.
func (r *Recorder) intern(name string) uint32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	if r.ids == nil {
		r.ids = make(map[string]uint32)
	}
	id := uint32(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// sample rebuilds the public form of a row.
func (r *Recorder) sample(s *row) Sample {
	return Sample{
		Model:     r.names[s.model],
		Tenant:    r.names[s.tenant],
		Strict:    s.Strict,
		Latency:   s.Latency,
		SLO:       s.SLO,
		Breakdown: s.Breakdown,
		Completed: s.Completed,
		Weight:    s.Weight,
	}
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
	r.rows = append(r.rows, row{
		model:     r.intern(s.Model),
		tenant:    r.intern(s.Tenant),
		Strict:    s.Strict,
		Latency:   s.Latency,
		SLO:       s.SLO,
		Breakdown: s.Breakdown,
		Completed: s.Completed,
		Weight:    s.Weight,
	})
	r.weightSum += s.Weight
	r.sortedOK = false
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
// recorders are skipped. Merging several at once sizes r's buffer once.
// Merging a sketch-mode recorder into an exact one (or vice versa)
// converts sample-by-sample where possible; sketch→exact is impossible
// (the samples are gone) and panics.
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
	n := 0
	for _, o := range others {
		if o == nil {
			continue
		}
		if o.sk != nil {
			panic("metrics: cannot merge a sketch-mode recorder into an exact recorder")
		}
		n += o.exactLen()
	}
	r.materialize()
	r.rows = slices.Grow(r.rows, n)
	for _, o := range others {
		if o != nil {
			r.appendRows(o)
		}
	}
	r.sortedOK = false
}

// appendRows copies o's visible rows onto r, remapping o's name ids to
// r's. Names are interned as rows reach them, so r's table stays in
// first-seen order.
func (r *Recorder) appendRows(o *Recorder) {
	// remap[id] is r's id for o's id, plus one; 0 means not seen yet.
	remap := make([]uint32, len(o.names))
	to := func(id uint32) uint32 {
		if remap[id] == 0 {
			remap[id] = r.intern(o.names[id]) + 1
		}
		return remap[id] - 1
	}
	src, view := o.rows, o.view
	n := o.exactLen()
	for k := 0; k < n; k++ {
		i := k
		if view != nil {
			i = view[k]
		}
		s := src[i]
		s.model, s.tenant = to(s.model), to(s.tenant)
		r.rows = append(r.rows, s)
		r.weightSum += s.Weight
	}
}

// mergeSketch folds one recorder into sketch-mode r.
func (r *Recorder) mergeSketch(other *Recorder) {
	if other.sk == nil {
		other.eachExact(func(s *row) { r.addSketch(other.sample(s)) })
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
	return len(r.rows)
}

// eachExact visits the recorder's rows in order (exact mode).
func (r *Recorder) eachExact(fn func(*row)) {
	if r.view != nil {
		for _, i := range r.view {
			fn(&r.rows[i])
		}
		return
	}
	for i := range r.rows {
		fn(&r.rows[i])
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
// mode this is a view over the same backing (no sample copies); in
// sketch mode the predicate selects whole aggregates via one
// representative sample each.
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
	// A subset never outgrows r, so its positions are sized up front.
	out := &Recorder{rows: r.rows, names: r.names, ids: r.ids, shared: true, view: make([]int, 0, r.exactLen())}
	r.shared = true
	keep := func(i int) {
		if s := &r.rows[i]; pred(r.sample(s)) {
			out.view = append(out.view, i)
			out.weightSum += s.Weight
		}
	}
	if r.view != nil {
		for _, i := range r.view {
			keep(i)
		}
		return out
	}
	for i := range r.rows {
		keep(i)
	}
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

// ForTenant returns samples belonging to one tenant (live control-plane
// traffic tags every sample with its tenant id).
func (r *Recorder) ForTenant(id string) *Recorder {
	return r.Filter(func(s Sample) bool { return s.Tenant == id })
}

// Attainment returns the weighted fraction of samples with a latency
// target (SLO > 0) that met it, across both request classes — the
// per-tenant serving metric of the live control plane, where best-effort
// tenants carry soft targets too. It returns NaN when no sample has a
// target.
func (r *Recorder) Attainment() float64 {
	total, met := 0, 0
	if r.sk != nil {
		for _, k := range r.skKeys() {
			a := r.sk.aggs[k]
			total += a.attTotal
			met += a.attMet
		}
	} else {
		r.eachExact(func(s *row) {
			if s.SLO <= 0 {
				return
			}
			total += s.Weight
			if s.Latency <= s.SLO {
				met += s.Weight
			}
		})
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(met) / float64(total)
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
		r.eachExact(func(s *row) {
			if !s.Strict {
				return
			}
			total += s.Weight
			if s.Latency <= s.SLO {
				met += s.Weight
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
		r.eachExact(func(s *row) {
			sum += s.Latency * float64(s.Weight)
			n += s.Weight
		})
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// quantileIndex returns the visible rows' keys sorted by (latency,
// position) and their cumulative weights in that order, cached behind a
// dirty flag: report generation asks for many quantiles over the same
// frozen recorder.
//
// Positions are unique, so (latency, position) is a total order and any
// sort reproduces exactly the order a stable sort by latency alone
// gives (visible positions ascend). Latencies compare with < and >, so
// -0.0 and 0.0 tie and fall back to position, as they do in a stable
// sort. cum is summed in sorted order, one float64 weight at a time,
// as a linear scan would sum it.
func (r *Recorder) quantileIndex() ([]latKey, []float64) {
	if r.sortedOK {
		return r.byLat, r.cum
	}
	keys := make([]latKey, 0, r.exactLen())
	key := func(i int) latKey {
		s := &r.rows[i]
		k := latKey{lat: s.Latency, pos: uint32(i)}
		if uint64(s.Weight) <= math.MaxUint32 {
			k.w = uint32(s.Weight)
		}
		return k
	}
	if r.view != nil {
		for _, i := range r.view {
			keys = append(keys, key(i))
		}
	} else {
		for i := range r.rows {
			keys = append(keys, key(i))
		}
	}
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
			w = r.rows[k.pos].Weight
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

// sampleAtPercentile returns the weighted p-th percentile sample
// (0 < p <= 100), or nil when the recorder is empty.
func (r *Recorder) sampleAtPercentile(p float64) *row {
	if r.exactLen() == 0 {
		return nil
	}
	keys, cum := r.quantileIndex()
	target := p / 100 * float64(r.Requests())
	// cum never decreases, so the first entry reaching target is the one
	// a linear scan stops at; none reaching it means the last.
	i := min(sort.SearchFloat64s(cum, target), len(cum)-1)
	return &r.rows[keys[i].pos]
}

// Percentile returns the weighted p-th percentile latency (NaN when
// empty). P99 tail latency is Percentile(99). In sketch mode the value
// is the deterministic sketch estimate, within SketchAlpha relative
// error of the exact weighted percentile.
func (r *Recorder) Percentile(p float64) float64 {
	if r.sk != nil {
		return r.mergedSketch().Quantile(p)
	}
	s := r.sampleAtPercentile(p)
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
	s := r.sampleAtPercentile(p)
	if s == nil {
		return gpu.Breakdown{}
	}
	return s.Breakdown
}

// CDFPoint is one point of an empirical latency CDF.
type CDFPoint struct {
	// Latency in seconds.
	Latency float64
	// Fraction of requests with latency <= Latency.
	Fraction float64
}

// CDF returns the empirical weighted CDF sampled at up to points evenly
// spaced quantiles.
func (r *Recorder) CDF(points int) []CDFPoint {
	if points <= 0 || r.Len() == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		q := float64(i) / float64(points) * 100
		out = append(out, CDFPoint{Latency: r.Percentile(q), Fraction: q / 100})
	}
	return out
}

// Latencies returns the raw latency list, one value per sample. Used by
// the statistical tests. Sketch-mode recorders retain no raw values and
// return nil.
func (r *Recorder) Latencies() []float64 {
	if r.sk != nil {
		return nil
	}
	out := make([]float64, 0, r.exactLen())
	r.eachExact(func(s *row) { out = append(out, s.Latency) })
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
		r.eachExact(func(s *row) { names[r.names[s.model]] = true })
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
