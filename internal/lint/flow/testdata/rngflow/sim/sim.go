// Package sim plays internal/sim's generator in the rngflow fixture: a
// concrete Rand, its constructor, and a Stream that embeds it by value
// and so promotes its draws.
package sim

// Rand is a toy generator with the engine's draw methods.
type Rand struct{ x uint64 }

// NewRand seeds a generator.
func NewRand(seed int64) *Rand { return &Rand{x: uint64(seed)} }

func (r *Rand) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x
}

// Float64 draws from [0, 1).
func (r *Rand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Intn draws from [0, n).
func (r *Rand) Intn(n int) int { return int(r.next() % uint64(n)) }

// Stream is a Rand that remembers its seed, as sim.Stream does.
type Stream struct {
	Rand
	seed uint64
}

// NewStream seeds a stream.
func NewStream(seed uint64) *Stream {
	return &Stream{Rand: Rand{x: seed}, seed: seed}
}

// Child derives a stream from this one's seed.
func (st *Stream) Child(label string) *Stream {
	return NewStream(st.seed ^ uint64(len(label)))
}
