package sim

import (
	"math"
	"math/rand"
	"testing"
)

// randEdgeSeeds are the seeds where rngSource.Seed's reduction has a
// boundary: zero and its replacement, the modulus and its neighbours,
// and seeds beyond 32 bits of either sign.
var randEdgeSeeds = []int64{
	0, 1, -1, 89482311, int32max, int32max - 1, -int32max,
	1 << 40, -1 << 62, math.MaxInt64, math.MinInt64,
}

// randIntns are the Intn bounds a comparison draws: the mask path
// (powers of two), the Int31n rejection loop, its largest bound, and
// the Int63n loop above it.
var randIntns = []int{1, 2, 3, 7, 1000, int32max, 1 << 31, 1 << 40}

// randOps is the number of distinct draws: Float64, ExpFloat64,
// NormFloat64 and one Intn per bound.
var randOps = 3 + len(randIntns)

// drawBits makes draw op on r and on want and returns both results as
// bits.
func drawBits(op int, r *Rand, want *rand.Rand) (got, exp uint64) {
	switch op {
	case 0:
		return math.Float64bits(r.Float64()), math.Float64bits(want.Float64())
	case 1:
		return math.Float64bits(r.ExpFloat64()), math.Float64bits(want.ExpFloat64())
	case 2:
		return math.Float64bits(r.NormFloat64()), math.Float64bits(want.NormFloat64())
	default:
		n := randIntns[op-3]
		return uint64(r.Intn(n)), uint64(want.Intn(n))
	}
}

// checkRandOps replays ops on NewRand(seed) and on math/rand seeded
// alike and fails at the first draw whose bits differ.
func checkRandOps(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	r, want := NewRand(seed), rand.New(rand.NewSource(seed))
	for i, b := range ops {
		op := int(b) % randOps
		if got, exp := drawBits(op, r, want); got != exp {
			t.Fatalf("seed %d: draw %d (op %d) = %#x, math/rand gives %#x", seed, i, op, got, exp)
		}
	}
}

// TestRandMatchesMathRand holds Rand to math/rand's stream: for the
// edge seeds and a few thousand random ones, the first 10⁴ interleaved
// draws agree bit for bit.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), randEdgeSeeds...)
	nRandom := 2000
	if testing.Short() {
		nRandom = 200
	}
	pick := rand.New(rand.NewSource(47))
	for range nRandom {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	ops := make([]byte, 10000)
	for _, seed := range seeds {
		for i := range ops {
			ops[i] = byte(pick.Intn(randOps))
		}
		checkRandOps(t, seed, ops)
	}
}

// FuzzRandMatchesMathRand runs the same comparison over a fuzzed seed
// and sequence of draws.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(int64(0), []byte{2, 2, 2, 1, 1, 1, 10, 9, 0})
	f.Add(int64(math.MinInt64), []byte{8, 9, 10, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		checkRandOps(t, seed, ops)
	})
}
