// Package metrics collects per-request latency observations and computes
// everything the paper's evaluation reports: SLO compliance, weighted
// latency percentiles, tail-latency breakdowns (Figures 2, 6,
// 11), throughput, and the statistical significance measures of §7
// (Welch's t-test, Cohen's d, confidence intervals).
//
// A Recorder keeps its samples at one of three levels (Level). Every
// level keeps the counts: samples, weighted requests, and weighted
// strict requests and those meeting their SLO, so request counts, SLO
// compliance and goodput are answered alike at each. The default Rows
// level is the exact recorder: it also buffers every sample, which keeps
// goldens, grid cells, and statistical-test inputs byte-identical run to
// run. It stores a 24-byte row per sample and keeps the fields a run of
// consecutive samples shares (a cluster batch's model, class, SLO,
// weight, completion time and most of its breakdown) once per run; see
// DESIGN.md, "Exact-mode layout". The Counts level is the exact recorder
// without its rows, for readers that need nothing else. The Sketches
// level keeps one deterministic quantile Sketch per request class on top
// of the counts, for runs whose request volume would not fit in memory:
// it answers per-class percentiles too. At either level below Rows every
// query that needs rows panics, and a count recorder's Percentile too,
// so a reader cannot ask more than its runs kept; see DESIGN.md, "Memory
// model at scale".
package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"protean/internal/gpu"
)

// Sample is one latency observation. A batch of N requests is recorded
// as one sample with Weight N.
type Sample struct {
	// Model is the invoked model's name.
	Model string
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
// queueing delay, and the id of its group. A sample's other fields live
// in the group record the row indexes, which a run of consecutive rows
// shares. A row holds no pointers, so the garbage collector never scans
// a sample buffer.
type row struct {
	Latency float64
	Queue   float64
	group   uint32
}

// group holds the fields a run of consecutive rows in one chunk shares:
// every Sample field but Latency and Breakdown.Queue, with Model
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

// nameTable holds the model names groups refer to by id, in first-seen
// order; ids maps each name back. It is
// append-only, so an id, once handed out, names the same string forever.
type nameTable struct {
	names []string
	ids   map[string]uint32
}

// intern returns name's id, adding it if new. *last is the id interned
// last, and is checked before the map: consecutive samples mostly share
// their model.
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

// latKey is one row as the selection reads it: its latency as an order
// key (latOrder), its handle and its weight, so the passes after the
// first never load the row itself.
type latKey struct {
	ord uint64
	pos uint32
	w   int
}

// latOrder maps a latency to a key whose unsigned order is the
// latency's order under <. -0.0 becomes +0.0 first, so the two tie as
// they do under <. A non-negative latency's bits then get the sign bit
// set and a negative one's are all inverted, so negatives sort below
// non-negatives and, among negatives, a larger magnitude sorts lower.
// Every NaN maps to the largest key, after +Inf: < gives NaN no place,
// and selection puts NaN latencies last, in handle order.
func latOrder(lat float64) uint64 {
	switch {
	case lat == 0:
		lat = 0
	case math.IsNaN(lat):
		return math.MaxUint64
	}
	b := math.Float64bits(lat)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// maxDigitBits is the widest selection digit. A digit's weight
// histogram, at most 1<<maxDigitBits ints (32 KiB), lives on the stack.
const maxDigitBits = 12

// selector finds the visible row at which the running weight, summed in
// (latency, handle) order, first reaches target. Each level histograms
// one digit of the order keys, picks the bucket the target falls in and
// narrows to that bucket's keys, in handle order, until a bucket holds
// one key; there the rows tie, and handle order decides.
type selector struct {
	target float64
	// base is the weight of every row ordered before the current bucket.
	base int
	// The current digit is the bits mask selects after a right shift
	// by shift; bucket is the chosen value of it.
	shift        int
	mask, bucket uint64
	hist         [1 << maxDigitBits]int
	// keys collects the chosen bucket's keys for the next level.
	keys []latKey
	// pos is the answer once the last level has run.
	pos uint32
}

// digit sets the digit the next level reads from n keys whose bits
// differ from one another only where diff has a bit set, and clears its
// histogram. The digit is about log2(n) bits wide, at most maxDigitBits,
// so a level costs O(n), and ends at diff's highest set bit, or at bit
// 0 when that is lower down: a bucket of a shift-0 digit holds one key.
func (s *selector) digit(diff uint64, n int) {
	width := min(bits.Len(uint(n)), maxDigitBits)
	s.shift, s.mask = max(bits.Len64(diff)-width, 0), 1<<width-1
	clear(s.hist[:1<<width])
}

// count adds keys' weights to the histogram of the current digit.
func (s *selector) count(keys []latKey) {
	for _, k := range keys {
		s.hist[k.ord>>s.shift&s.mask] += k.w
	}
}

// countRows adds every visible row's weight to the histogram of the
// current digit.
func (s *selector) countRows(r *Recorder) {
	if r.view != nil {
		for _, h := range r.view {
			row, g := r.at(h)
			s.hist[latOrder(row.Latency)>>s.shift&s.mask] += g.Weight
		}
		return
	}
	for ci := range r.chunks {
		c := &r.chunks[ci]
		for off := range c.rows {
			row := &c.rows[off]
			s.hist[latOrder(row.Latency)>>s.shift&s.mask] += c.groups[row.group].Weight
		}
	}
}

// choose picks the first bucket whose end the running weight reaches
// target at, or the last non-empty bucket when none does, and sets base
// to the weight before it. Prefixes are integers, so one equals the
// float64 running sum the target was defined against while the total
// weight is at most 2^53.
func (s *selector) choose() {
	run, last := s.base, -1
	for b, w := range s.hist[:s.mask+1] {
		if w == 0 {
			continue
		}
		if float64(run+w) >= s.target {
			s.bucket, s.base = uint64(b), run
			return
		}
		run, last = run+w, b
	}
	s.bucket, s.base = uint64(last), run-s.hist[last]
}

// take passes one key of the chosen bucket, in handle order. While the
// bucket may hold several keys it collects them for the next level.
// Once it holds one key it walks them instead: the first whose running
// weight reaches target is the answer, and the bucket's last is the
// answer when none does. It returns false once the answer is found.
func (s *selector) take(k latKey) bool {
	if s.shift > 0 {
		s.keys = append(s.keys, k)
		return true
	}
	s.base += k.w
	s.pos = k.pos
	// Not <: no weight reaches a NaN target.
	return !(float64(s.base) >= s.target)
}

// narrow passes the keys in the chosen bucket to take.
func (s *selector) narrow(keys []latKey) {
	for _, k := range keys {
		if k.ord>>s.shift&s.mask == s.bucket && !s.take(k) {
			return
		}
	}
}

// narrowRows passes the visible rows in the chosen bucket to take.
func (s *selector) narrowRows(r *Recorder) {
	if r.view != nil {
		for _, h := range r.view {
			row, g := r.at(h)
			if k := latOrder(row.Latency); k>>s.shift&s.mask == s.bucket && !s.take(latKey{k, h, g.Weight}) {
				return
			}
		}
		return
	}
	for ci := range r.chunks {
		c := &r.chunks[ci]
		for off := range c.rows {
			row := &c.rows[off]
			if k := latOrder(row.Latency); k>>s.shift&s.mask == s.bucket && !s.take(latKey{k, uint32(ci<<chunkShift | off), c.groups[row.group].Weight}) {
				return
			}
		}
	}
}

// selectRow returns the handle of the visible row at which the running
// weight, summed in (latency, handle) order, first reaches target, or of
// the last row in that order when none does; r holds at least one row.
// The first level reads the rows; later ones read the collected keys,
// narrowed in place. There is no comparison sort, so a recorder whose
// rows all tie costs two passes over them.
func (r *Recorder) selectRow(target float64) uint32 {
	s := &selector{target: target}
	n := r.exactLen()
	s.digit(r.ordDiff, n)
	s.countRows(r)
	s.choose()
	if s.shift > 0 {
		// Every row weighs at least 1, so the bucket's weight bounds its
		// rows.
		s.keys = make([]latKey, 0, min(s.hist[s.bucket], n))
	}
	s.narrowRows(r)
	for keys := s.keys; s.shift > 0; keys = s.keys {
		diff := uint64(0)
		for _, k := range keys {
			diff |= k.ord ^ keys[0].ord
		}
		s.digit(diff, len(keys))
		s.keys = keys[:0]
		s.count(keys)
		s.choose()
		s.narrow(keys)
	}
	// A shift-0 bucket in which no running weight reached target ends at
	// its last key: pos holds it.
	return s.pos
}

// Level is how much of each sample a Recorder keeps.
type Level uint8

const (
	// Rows keeps every sample: the exact recorder, and the zero Level.
	Rows Level = iota
	// Counts keeps only the counts every level keeps.
	Counts
	// Sketches keeps the counts and one quantile Sketch per class.
	Sketches
)

// levelNames name each level's recorder in panic messages.
var levelNames = [...]string{Rows: "exact", Counts: "count", Sketches: "sketch"}

// Valid reports whether l is one of the three levels.
func (l Level) Valid() bool { return int(l) < len(levelNames) }

// NewRecorder returns an empty recorder that keeps level l. It panics
// on an invalid level.
func NewRecorder(l Level) *Recorder {
	switch l {
	case Rows:
		return &Recorder{}
	case Counts:
		return &Recorder{level: Counts}
	case Sketches:
		return &Recorder{level: Sketches, sketches: &[2]Sketch{}}
	}
	panic(fmt.Sprintf("metrics: invalid level %d", l))
}

// Recorder accumulates samples. The zero value is an exact (Rows)
// recorder, ready to use. A Recorder is not safe for concurrent use,
// and recorders that share chunks (a parent and its views, a merge
// source and its destination) must not be used concurrently either.
//
// Strict, BestEffort and ForModel return view recorders, which are
// read-only: Add, AddBatch, AddCounts and Merge on a view panic, and so
// does merging a view into anything. An exact view is clipped references to
// the parent's chunks plus one handle slice, never a sample copy. Rows
// are never modified once written, and a view cannot reach past the
// lengths its chunks had when it was taken, so it is a snapshot:
// samples the parent adds or merges later stay invisible to it and cost
// the parent no copy. A count or sketch recorder's class view copies
// its class's share of the parent's counts, and a sketch recorder's
// shares its parent's class sketches, which keep changing as the parent
// records, so take it after the parent's last write.
type Recorder struct {
	// level is what the recorder keeps; a view keeps its parent's.
	level Level
	// chunks holds the rows in storage order. The recorder appends only
	// to a tail chunk indexing its own name table; chunks taken from
	// other recorders by Merge are clipped and read-only.
	chunks []chunk
	// names is the table this recorder interns into (nil until it
	// records a row of its own). lastModel is the id AddBatch interned
	// last, which it tries before the table's map.
	names     *nameTable
	lastModel uint32
	// view, when non-nil, restricts the recorder to these handles (a
	// filtered view over a parent's chunks).
	view []uint32
	// weightSum is the total weighted request count of the visible
	// samples.
	weightSum int
	// strictW and strictMet count the visible samples' weighted strict
	// requests and those with Latency <= SLO, at every level. Every write
	// path and view keeps them.
	strictW, strictMet int
	// samples and strictSamples count the visible samples and the strict
	// ones. A recorder that keeps no rows reads Len from them; an exact
	// recorder counts its rows instead, so its views leave them zero.
	samples, strictSamples int
	// ordBase is the order key (latOrder) of the first row recorded or
	// merged, and ordDiff ORs every row's key XOR ordBase, so all keys
	// share the bits above ordDiff's highest set bit and selection
	// starts below them. A view keeps its parent's: they bound its rows.
	ordBase, ordDiff uint64
	// memoP is the percentile sampleAtPercentile answered last and memoH
	// the handle it chose, valid while memoOK; every write clears it.
	memoP  float64
	memoH  uint32
	memoOK bool

	// sketches holds a sketch recorder's latencies: one quantile sketch
	// per class, indexed by classOf. hidden marks the classes a class
	// view of a count or sketch recorder hides; a sketch view shares its
	// parent's sketches.
	sketches *[2]Sketch
	hidden   [2]bool
}

// classOf indexes a class in Recorder.sketches: best effort, then
// strict.
func classOf(strict bool) int {
	if strict {
		return 1
	}
	return 0
}

// NewSketchRecorder returns a recorder at the Sketches level: one
// quantile Sketch per class instead of a sample buffer. Quantiles are
// within SketchAlpha relative error; Len, Requests, SLOCompliance and
// Goodput are exact, on the recorder and on its Strict and BestEffort
// views. No row is kept, so every query that needs rows (ForModel,
// Mean, Latencies, BreakdownAtPercentile, Summarize, Snapshot, and
// Throughput with a horizon) panics.
func NewSketchRecorder() *Recorder { return NewRecorder(Sketches) }

// isView reports whether r is a filtered view rather than a whole
// recorder.
func (r *Recorder) isView() bool { return r.view != nil || r.hidden != [2]bool{} }

// mustWrite panics unless r is a whole recorder that op may write to.
func (r *Recorder) mustWrite(op string) {
	if r.isView() {
		panic("metrics: " + op + " on a view recorder")
	}
}

// mustRows panics unless r keeps the rows op reads: a count recorder
// keeps only its counts, a sketch recorder its counts and class
// sketches.
func (r *Recorder) mustRows(op string) {
	if r.level != Rows {
		panic("metrics: " + op + " on a " + levelNames[r.level] + " recorder")
	}
}

// tail returns the chunk AddBatch appends to: the last chunk
// while it indexes r's own table and has room, else a new one. A recorder's
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

// Add records a sample. Zero weights are normalized to 1. It is an
// AddBatch of one row.
func (r *Recorder) Add(s Sample) {
	r.mustWrite("Add")
	r.AddBatch(s, []BatchRow{{Latency: s.Latency, Queue: s.Breakdown.Queue}})
}

// groupOf returns the group fields of s, all but the model id.
func groupOf(s *Sample) group {
	b := &s.Breakdown
	return group{
		SLO:          s.SLO,
		Completed:    s.Completed,
		ColdStart:    b.ColdStart,
		MinPossible:  b.MinPossible,
		Deficiency:   b.Deficiency,
		Interference: b.Interference,
		Weight:       s.Weight,
		Strict:       s.Strict,
	}
}

// BatchRow is one request's own fields in a batch of samples that share
// every other Sample field (see AddBatch).
type BatchRow struct {
	// Latency is the request's end-to-end latency in seconds.
	Latency float64
	// Queue is the request's Breakdown.Queue.
	Queue float64
	// Tenant is the request's owning tenant id, by which a live
	// cluster's completions are routed to their tenant. Recorders do not
	// store it.
	Tenant string
}

// Sample returns the sample br stands for in a batch whose other fields
// are shared's.
func (br BatchRow) Sample(shared Sample) Sample {
	shared.Latency = br.Latency
	shared.Breakdown.Queue = br.Queue
	return shared
}

// AddBatch records one sample per row, rows[i].Sample(shared), and
// stores exactly what one call per row would: a cluster node records
// each completed batch with one call. An exact recorder interns the
// model once and compares the shared fields with the tail group once
// per chunk the rows reach, not once per row; a sketch recorder adds
// each latency to its class's sketch, and a count recorder keeps only
// the counts. Each counts the rows meeting the SLO the same way.
func (r *Recorder) AddBatch(shared Sample, rows []BatchRow) {
	if len(rows) == 0 {
		return
	}
	if shared.Weight <= 0 {
		shared.Weight = 1
	}
	r.mustWrite("AddBatch")
	var met int
	if r.level == Rows {
		met = r.appendRows(&shared, rows)
	} else {
		var sk *Sketch
		if r.level == Sketches {
			sk = &r.sketches[classOf(shared.Strict)]
		}
		for _, br := range rows {
			if sk != nil {
				sk.Add(br.Latency, shared.Weight)
			}
			if br.Latency <= shared.SLO {
				met++
			}
		}
	}
	r.count(&shared, len(rows), met)
}

// AddCounts records n samples that share every field of shared but
// their latency, met of which have a latency at or below shared.SLO: a
// cluster node at the Counts level records each completed batch with
// one call and builds no rows. Zero weights are normalized to 1. Only a
// count recorder takes it; the other levels keep what the latencies
// give (AddBatch).
func (r *Recorder) AddCounts(shared Sample, n, met int) {
	if n == 0 {
		return
	}
	r.mustWrite("AddCounts")
	if r.level != Counts {
		panic("metrics: AddCounts on a " + levelNames[r.level] + " recorder")
	}
	r.count(&shared, n, met)
}

// count adds n samples of shared's class and weight, met of which meet
// the SLO, to r's counts: the one place a write turns into counts.
func (r *Recorder) count(shared *Sample, n, met int) {
	w := max(shared.Weight, 1)
	r.samples += n
	r.weightSum += w * n
	if shared.Strict {
		r.strictSamples += n
		r.strictW += w * n
		r.strictMet += w * met
	}
}

// appendRows stores rows as exact-mode rows of one group and returns how
// many meet the shared SLO. It runs before AddBatch counts the rows.
func (r *Recorder) appendRows(shared *Sample, rows []BatchRow) (met int) {
	if r.names == nil {
		r.names = &nameTable{ids: make(map[string]uint32)}
	}
	g := groupOf(shared)
	g.model = r.names.intern(shared.Model, &r.lastModel)
	// The rows share one class, SLO and weight, so the row loop only ORs
	// in key bits and counts the rows meeting the SLO.
	if r.weightSum == 0 {
		r.ordBase = latOrder(rows[0].Latency)
	}
	base, diff := r.ordBase, r.ordDiff
	r.memoOK = false
	for len(rows) > 0 {
		c := r.tail()
		if n := len(c.groups); n == 0 || !c.groups[n-1].same(&g) {
			c.groups = append(c.groups, g)
		}
		id := uint32(len(c.groups) - 1)
		k := min(len(rows), cap(c.rows)-len(c.rows))
		for _, br := range rows[:k] {
			c.rows = append(c.rows, row{Latency: br.Latency, Queue: br.Queue, group: id})
			diff |= latOrder(br.Latency) ^ base
			if br.Latency <= g.SLO {
				met++
			}
		}
		rows = rows[k:]
	}
	r.ordDiff = diff
	return met
}

// Merge folds other whole recorders of r's level into r, in argument
// order; nil recorders are skipped. An exact source is merged by taking
// clipped references to its chunks, with no row copy, so merging costs
// O(chunks); a sketch source's class sketches are added bucket-wise.
// Every level adds the source's counts. A view source, or a source of
// another level, panics.
func (r *Recorder) Merge(others ...*Recorder) {
	r.mustWrite("Merge")
	for _, o := range others {
		switch {
		case o == nil:
		case o.isView():
			panic("metrics: cannot merge a view recorder")
		case o.level != r.level:
			panic("metrics: cannot merge a " + levelNames[o.level] + " recorder into a " + levelNames[r.level] + " one")
		}
	}
	for _, o := range others {
		if o == nil {
			continue
		}
		// Each step reads o's state before writing r's, so r.Merge(r) takes
		// r's rows, sketches and counts as they were before that source:
		// Sketch.Merge of a sketch into itself doubles every bucket.
		switch r.level {
		case Sketches:
			for c := range r.sketches {
				r.sketches[c].Merge(&o.sketches[c])
			}
		case Rows:
			for _, c := range o.chunks {
				r.chunks = appendChunk(r.chunks, c.clip())
			}
			if o.weightSum > 0 {
				if r.weightSum == 0 {
					r.ordBase = o.ordBase
				}
				r.ordDiff |= o.ordDiff | (o.ordBase ^ r.ordBase)
			}
		}
		r.samples += o.samples
		r.strictSamples += o.strictSamples
		r.weightSum += o.weightSum
		r.strictW += o.strictW
		r.strictMet += o.strictMet
	}
	r.memoOK = false
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

// Len returns the number of samples (not weighted).
func (r *Recorder) Len() int {
	if r.level != Rows {
		return r.samples
	}
	return r.exactLen()
}

// Requests returns the total weighted request count.
func (r *Recorder) Requests() int { return r.weightSum }

// emptyView returns an exact view over clipped references to r's chunks
// that selects no row yet and keeps r's key bounds. It reserves handles
// for at most rows rows, a bound on the subset's size the caller knows.
func (r *Recorder) emptyView(rows int) *Recorder {
	out := &Recorder{chunks: make([]chunk, len(r.chunks)), view: make([]uint32, 0, rows), ordBase: r.ordBase, ordDiff: r.ordDiff}
	for i, c := range r.chunks {
		out.chunks[i] = c.clip()
	}
	return out
}

// appendRow adds the row at handle h, with its group g, to view v.
func (v *Recorder) appendRow(h uint32, s *row, g *group) {
	v.view = append(v.view, h)
	v.weightSum += g.Weight
	if g.Strict {
		v.strictW += g.Weight
		if s.Latency <= g.SLO {
			v.strictMet += g.Weight
		}
	}
}

// filterGroups returns the exact view of the visible rows whose group
// and model name keep accepts: the fields the class, model and horizon
// views read. It asks keep once per run of rows that share a group,
// never building a Sample; rows bounds the rows it keeps.
func (r *Recorder) filterGroups(keep func(g *group, model string) bool, rows int) *Recorder {
	out := r.emptyView(min(rows, r.exactLen()))
	// A group's rows are consecutive in its chunk, so keep is asked again
	// only when the row's chunk or group changes.
	var g *group
	kept := false
	visit := func(h uint32, c *chunk, s *row) {
		if ng := &c.groups[s.group]; ng != g {
			g, kept = ng, keep(ng, c.names.names[ng.model])
		}
		if kept {
			out.appendRow(h, s, g)
		}
	}
	if r.view != nil {
		for _, h := range r.view {
			c := &r.chunks[h>>chunkShift]
			visit(h, c, &c.rows[h&chunkMask])
		}
		return out
	}
	for ci := range r.chunks {
		c := &r.chunks[ci]
		for off := range c.rows {
			visit(uint32(ci<<chunkShift|off), c, &c.rows[off])
		}
	}
	return out
}

// Strict returns the strict-sample subset.
func (r *Recorder) Strict() *Recorder {
	if r.level != Rows {
		return r.classView(true)
	}
	// Every row weighs at least 1, so the strict rows number at most the
	// strict weight.
	return r.filterGroups(func(g *group, _ string) bool { return g.Strict }, r.strictW)
}

// BestEffort returns the best-effort subset.
func (r *Recorder) BestEffort() *Recorder {
	if r.level != Rows {
		return r.classView(false)
	}
	return r.filterGroups(func(g *group, _ string) bool { return !g.Strict }, r.weightSum-r.strictW)
}

// classView returns the view of count or sketch recorder r that shows
// only the class strict names: it hides the other class, keeps the
// class's share of r's counts and shares r's class sketches.
func (r *Recorder) classView(strict bool) *Recorder {
	v := &Recorder{level: r.level, sketches: r.sketches, hidden: r.hidden}
	v.hidden[classOf(!strict)] = true
	if strict {
		v.samples, v.strictSamples = r.strictSamples, r.strictSamples
		v.weightSum, v.strictW, v.strictMet = r.strictW, r.strictW, r.strictMet
	} else {
		v.samples = r.samples - r.strictSamples
		v.weightSum = r.weightSum - r.strictW
	}
	return v
}

// ForModel returns samples of one model.
func (r *Recorder) ForModel(name string) *Recorder {
	r.mustRows("ForModel")
	return r.filterGroups(func(_ *group, model string) bool { return model == name }, r.weightSum)
}

// SLOCompliance returns the weighted fraction of strict samples meeting
// their SLO, read from the counts kept as the recorder records. It
// returns NaN when there are no strict samples.
func (r *Recorder) SLOCompliance() float64 {
	if r.strictW == 0 {
		return math.NaN()
	}
	return float64(r.strictMet) / float64(r.strictW)
}

// Mean returns the weighted mean latency (NaN when empty).
func (r *Recorder) Mean() float64 {
	r.mustRows("Mean")
	sum, n := 0.0, 0
	r.eachExact(func(_ uint32, s *row, g *group, _ *nameTable) {
		sum += float64(s.Latency * float64(g.Weight))
		n += g.Weight
	})
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// sampleAtPercentile returns the weighted p-th percentile sample's row
// and group (0 < p <= 100), or nils when the recorder is empty: the first
// row in (latency, handle) order at which the running weight reaches
// p/100 of the total, or the last row when none does. The last answer is
// memoised, so a P99 and its breakdown select once.
func (r *Recorder) sampleAtPercentile(p float64) (*row, *group) {
	if r.weightSum == 0 {
		return nil, nil
	}
	if !r.memoOK || math.Float64bits(r.memoP) != math.Float64bits(p) {
		r.memoP, r.memoH, r.memoOK = p, r.selectRow(p/100*float64(r.Requests())), true
	}
	return r.at(r.memoH)
}

// Percentile returns the weighted p-th percentile latency (NaN when
// empty). P99 tail latency is Percentile(99). On a sketch recorder the
// value is the deterministic estimate of the visible class sketches
// merged, within SketchAlpha relative error of the exact weighted
// percentile. Bucket counts are integers, so the merge order cannot
// matter. A count recorder keeps no latency, and panics.
func (r *Recorder) Percentile(p float64) float64 {
	if r.level == Sketches {
		return r.Sketch().Quantile(p)
	}
	r.mustRows("Percentile")
	s, _ := r.sampleAtPercentile(p)
	if s == nil {
		return math.NaN()
	}
	return s.Latency
}

// Sketch returns a new sketch of a sketch recorder's visible latencies:
// its visible class sketches merged, which Percentile reads. It panics
// on another level.
func (r *Recorder) Sketch() *Sketch {
	if r.level != Sketches {
		panic("metrics: Sketch on a " + levelNames[r.level] + " recorder")
	}
	var merged Sketch
	for c := range r.sketches {
		if !r.hidden[c] {
			merged.Merge(&r.sketches[c])
		}
	}
	return &merged
}

// BreakdownAtPercentile returns the latency decomposition of the sample
// sitting at the weighted p-th percentile — how the paper plots "P99
// latency breakdown".
func (r *Recorder) BreakdownAtPercentile(p float64) gpu.Breakdown {
	r.mustRows("BreakdownAtPercentile")
	s, g := r.sampleAtPercentile(p)
	if s == nil {
		return gpu.Breakdown{}
	}
	return g.breakdown(s.Queue)
}

// Latencies returns the raw latency list, one value per sample. Used by
// the statistical tests.
func (r *Recorder) Latencies() []float64 {
	r.mustRows("Latencies")
	out := make([]float64, 0, r.exactLen())
	r.eachExact(func(_ uint32, s *row, _ *group, _ *nameTable) { out = append(out, s.Latency) })
	return out
}

// completedWithin restricts to requests that finished by the horizon
// (excluding the post-trace drain). A zero horizon keeps everything;
// any other needs rows.
func (r *Recorder) completedWithin(horizon float64) *Recorder {
	if horizon <= 0 {
		return r
	}
	r.mustRows("a throughput horizon")
	return r.filterGroups(func(g *group, _ string) bool { return g.Completed <= horizon }, r.weightSum)
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
	r.mustRows("Summarize")
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
	r.mustRows("Snapshot")
	names := make(map[string]bool)
	r.eachExact(func(_ uint32, _ *row, g *group, t *nameTable) { names[t.names[g.model]] = true })
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
