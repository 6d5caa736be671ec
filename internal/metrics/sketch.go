package metrics

import (
	"math"
	"sort"
)

// SketchAlpha is the relative accuracy of the quantile sketch: a
// quantile estimate q̂ satisfies |q̂ - q| <= SketchAlpha·q for every
// true quantile value q > 0. The compression is fixed at construction
// for every sketch in the process, which is what makes merges exact
// bucket-wise integer additions — and therefore independent of both
// insertion order and merge order.
const SketchAlpha = 0.01

// gamma is the log-bucket base: buckets are (gamma^(i-1), gamma^i],
// with midpoint estimate 2·gamma^i/(gamma+1). alpha = (gamma-1)/(gamma+1).
var (
	sketchGamma       = (1 + SketchAlpha) / (1 - SketchAlpha)
	sketchInvLogGamma = 1 / math.Log(sketchGamma)
)

// Sketch is a deterministic O(1)-memory quantile sketch over positive
// values (a DDSketch-style fixed-compression log-bucket histogram).
// Weighted values land in integer-count buckets, so Add order never
// matters and Merge is commutative and associative: equal inputs give
// equal sketches however they were assembled. Latencies from a
// microsecond to an hour span about 1,100 buckets at 1% relative
// accuracy, so memory is effectively constant while the exact path's
// sample buffer grows with the request count. Values at or below 0 rank
// first, with estimate 0; NaN and +Inf rank last, in one bucket whose
// estimate is +Inf, as the exact recorder ranks them.
//
// The zero value is ready to use.
type Sketch struct {
	counts map[int32]int64
	// zeros counts values <= 0 (a latency can round to exactly 0 under
	// extreme quantisation; they sort below every positive bucket).
	zeros int64
	total int64
}

// infBucket holds NaN and +Inf. Every finite positive value's bucket
// lies within ±40,000, far below it.
const infBucket int32 = math.MaxInt32

// bucketOf returns the bucket index of a positive value or NaN. A NaN
// or +Inf would convert to an int32 the Go spec leaves to the
// implementation, so both go to infBucket.
func bucketOf(v float64) int32 {
	if !(v <= math.MaxFloat64) {
		return infBucket
	}
	return int32(math.Ceil(math.Log(v) * sketchInvLogGamma))
}

// bucketValue is the midpoint estimate of bucket i, with relative
// error at most SketchAlpha for any value in the bucket; infBucket's is
// +Inf.
func bucketValue(i int32) float64 {
	if i == infBucket {
		return math.Inf(1)
	}
	return 2 * math.Pow(sketchGamma, float64(i)) / (sketchGamma + 1)
}

// Add folds a weighted value into the sketch.
func (sk *Sketch) Add(v float64, weight int) {
	if weight <= 0 {
		weight = 1
	}
	sk.total += int64(weight)
	if v <= 0 {
		sk.zeros += int64(weight)
		return
	}
	if sk.counts == nil {
		sk.counts = make(map[int32]int64)
	}
	sk.counts[bucketOf(v)] += int64(weight)
}

// Merge folds other into sk bucket-wise. Because buckets are fixed at
// construction, the result is identical whichever order sketches are
// merged in.
func (sk *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	sk.total += other.total
	sk.zeros += other.zeros
	if len(other.counts) == 0 {
		return
	}
	if sk.counts == nil {
		sk.counts = make(map[int32]int64)
	}
	for i, c := range other.counts {
		sk.counts[i] += c
	}
}

// sortedBuckets returns the occupied bucket indexes in ascending order.
func (sk *Sketch) sortedBuckets() []int32 {
	idx := make([]int32, 0, len(sk.counts))
	for i := range sk.counts {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// Quantile returns the weighted p-th percentile estimate (0 < p <=
// 100), mirroring the exact recorder's convention: the value at the
// first position where the cumulative weight reaches ceil-free target
// p/100·total. Returns NaN when the sketch is empty.
func (sk *Sketch) Quantile(p float64) float64 {
	if sk.total == 0 {
		return math.NaN()
	}
	if i, zero := sk.quantileBucket(p); !zero {
		return bucketValue(i)
	}
	return 0
}

// quantileBucket returns the bucket of a non-empty sketch holding the
// weighted p-th percentile, or zero true when the values at or below 0
// hold it: the first in ascending order at which the cumulative weight
// reaches p/100·total, or the last occupied one when none does.
func (sk *Sketch) quantileBucket(p float64) (i int32, zero bool) {
	target := p / 100 * float64(sk.total)
	cum := float64(sk.zeros)
	if cum >= target && sk.zeros > 0 {
		return 0, true
	}
	idx := sk.sortedBuckets()
	for _, i := range idx {
		cum += float64(sk.counts[i])
		if cum >= target {
			return i, false
		}
	}
	if len(idx) == 0 {
		return 0, true
	}
	return idx[len(idx)-1], false
}
