// Package app exercises the three rngflow rules against the stream
// owned by the core package and against sim's streams.
package app

import (
	"math/rand"

	"fixturemod/core"
	"fixturemod/sim"
)

var eng = core.NewEngine()

// MapDraw consumes the stream in map-iteration order: the sequence is
// fixed, but which key receives which value is not.
func MapDraw(m map[string]int, rng *rand.Rand) int {
	t := 0
	for k := range m {
		t += len(k) + rng.Intn(3) // want:rngflow
	}
	return t
}

// SliceDraw is the safe shape: a slice iteration consumes the stream in
// index order.
func SliceDraw(xs []int, rng *rand.Rand) int {
	t := 0
	for range xs {
		t += rng.Intn(3) // ok: slice order is deterministic
	}
	return t
}

// SpawnDraw draws a captured stream inside a goroutine body; the second
// goroutine shows the legal per-goroutine pattern.
func SpawnDraw(rng *rand.Rand, out, out2 chan float64) {
	go func() {
		out <- rng.Float64() // want:rngflow
	}()
	go func() {
		local := rand.New(rand.NewSource(1))
		out2 <- local.Float64() // ok: stream created inside the goroutine
	}()
}

// StartWorkers spawns two goroutines that both draw from core's one
// stream through its accessor: the alias rule fires at each draw site.
func StartWorkers() {
	go producer()
	go consumer()
}

func producer() float64 {
	return eng.Rand().Float64() // want:rngflow
}

func consumer() float64 {
	return eng.Rand().NormFloat64() // want:rngflow
}

// StreamSpawn draws from a *sim.Stream it did not create inside a
// goroutine: the draw is promoted from the embedded sim.Rand, and the
// rule tracks it all the same. The other goroutines build their own.
func StreamSpawn(st *sim.Stream, out, out2, out3 chan float64) {
	go func() {
		out <- st.Float64() // want:rngflow
	}()
	go func() {
		local := sim.NewRand(1)
		out2 <- local.Float64() // ok: stream created inside the goroutine
	}()
	go func() {
		out3 <- sim.NewRand(2).Float64() // ok: a fresh stream, drawn inline
	}()
}

// StreamMapDraw consumes a sim.Stream in map-iteration order.
func StreamMapDraw(m map[string]int, st *sim.Stream) int {
	t := 0
	for range m {
		t += st.Intn(3) // want:rngflow
	}
	return t
}
