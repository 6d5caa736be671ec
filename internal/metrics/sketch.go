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
// equal sketches however they were assembled. Latencies span microseconds to hours in ~2300 buckets at
// 1% relative accuracy, so memory is effectively constant while the
// exact path's sample buffer grows with the request count.
//
// The zero value is ready to use.
type Sketch struct {
	counts map[int32]int64
	// zeros counts values <= 0 (a latency can round to exactly 0 under
	// extreme quantisation; they sort below every positive bucket).
	zeros int64
	total int64
}

// bucketOf returns the bucket index of a positive value.
func bucketOf(v float64) int32 {
	return int32(math.Ceil(math.Log(v) * sketchInvLogGamma))
}

// bucketValue is the midpoint estimate of bucket i, with relative
// error at most SketchAlpha for any value in the bucket.
func bucketValue(i int32) float64 {
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
	target := p / 100 * float64(sk.total)
	cum := float64(sk.zeros)
	if cum >= target && sk.zeros > 0 {
		return 0
	}
	idx := sk.sortedBuckets()
	for _, i := range idx {
		cum += float64(sk.counts[i])
		if cum >= target {
			return bucketValue(i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	return bucketValue(idx[len(idx)-1])
}
