// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Rand is a port of go1.24.0's src/math/rand generator (rng.go, the
// draws of rand.go, exp.go and normal.go), cut down to the draws the
// engine makes. Only the seeding, the width of the register's indexes
// and the FMA guards differ from the stdlib, and none changes a value.

package sim

import "math"

// Rand is math/rand's additive lagged Fibonacci generator (Mitchell and
// Reeds; 607 words, tap 273), called directly instead of through
// rand.Source. Every draw returns bit for bit what the same method of
// rand.New(rand.NewSource(seed)) returns; TestRandMatchesMathRand and
// FuzzRandMatchesMathRand hold it to that.
type Rand struct {
	// The indexes are int32, not int as in the stdlib, so a Rand is
	// 4,864 bytes, a size class of its own, not 8 bytes into 5,376.
	tap  int32         // index into vec
	feed int32         // index into vec
	vec  [rngLen]int64 // current feedback register
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	seedA = 48271 // the seeding LCG: x[n+1] = seedA*x[n] mod int32max
)

// seedPow[i][k] is seedA^(21+3i+k) mod int32max: math/rand's seeding
// steps its LCG 20 times, then three times per register word, so word
// i mixes the LCG's states 21+3i, 22+3i and 23+3i.
var seedPow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		x = x * seedA % int32max
		if k > 20 {
			p[(k-21)/3][(k-21)%3] = uint32(x)
		}
	}
	return p
}()

// NewRand returns a generator seeded as rand.NewSource(seed) is.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.setSeed(seed)
	return r
}

// setSeed puts r in the state rngSource.Seed(seed) leaves. The stdlib
// walks its LCG 1,841 steps, one division each, every step waiting on
// the last; the LCG's state n is just x0·seedA^n mod int32max, so each
// word here is three independent products with the precomputed powers.
func (r *Rand) setSeed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range r.vec {
		p := &seedPow[i]
		// a<<40 keeps a's low 24 bits, which the mask cannot change, so
		// a skips it.
		a, b, c := mod(x*uint64(p[0])), mod(x*uint64(p[1])), mod(x*uint64(p[2]))
		r.vec[i] = int64(a<<40^(b&int32max)<<20^c&int32max) ^ rngCooked[i]
	}
}

// mod returns p mod int32max in its low 31 bits, where p is a product of
// two numbers in [1, int32max). Write p = h·2³¹ + l: as 2³¹ ≡ 1, the
// residue is l + h, less int32max when l + h reaches it (never exactly:
// the product of two units mod a prime is not 0). (p + h)>>31 is h plus
// the carry out of l + h, so adding it to p leaves l + h in the low 31
// bits, or l + h + 1 − 2³¹ = l + h − int32max when l + h ≥ 2³¹. That
// costs no branch, where a compare would be a coin toss.
func mod(p uint64) uint64 { return p + (p+p>>31)>>31 }

// uint64 is rngSource.Uint64: one step of the feedback register.
func (r *Rand) uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *Rand) int63() int64 { return int64(r.uint64() & rngMask) }

func (r *Rand) uint32() uint32 { return uint32(r.int63() >> 31) }

func (r *Rand) int31() int32 { return int32(r.int63() >> 32) }

// Float64 returns a number in [0, 1). Like math/rand, it divides a
// 63-bit draw by 2⁶³ and draws again in the rare case that rounds to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a number in [0, n) by math/rand's v1 rejection loops
// (Int31n up to 2³¹−1, Int63n above). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > max {
		v = r.int31()
	}
	return v % n
}

func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}

const (
	re = 7.69711747013104972 // start of the exponential ziggurat's tail
	rn = 3.442619855899      // start of the normal ziggurat's tail
)

// ExpFloat64 returns an exponentially distributed number with rate 1,
// by Marsaglia and Tsang's ziggurat ("The Ziggurat Method for
// Generating Random Variables", 2000), as math/rand does. The wedge
// test rounds its product before the add, so arm64 cannot fuse it.
func (r *Rand) ExpFloat64() float64 {
	for {
		j := r.uint32()
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(float32(r.Float64())*(fe[i-1]-fe[i])) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// NormFloat64 returns a standard normal number by the same ziggurat
// method, as math/rand does, with the same unfused wedge test. The
// tail's x is rounded too, or arm64 fuses it into rn + x.
func (r *Rand) NormFloat64() float64 {
	for {
		j := int32(r.uint32()) // possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			// This case should be hit better than 99% of the time.
			return x
		}
		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = float64(-math.Log(r.Float64()) * (1.0 / rn))
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(float32(r.Float64())*(fn[i-1]-fn[i])) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
