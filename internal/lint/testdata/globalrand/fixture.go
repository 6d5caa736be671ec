// Package fixture exercises the globalrand analyzer: package-level
// math/rand functions draw from the shared global source and break
// seed-reproducibility.
package fixture

import "math/rand"

func bad() float64 {
	x := rand.Float64() // want:globalrand
	x += float64(rand.Intn(10)) // want:globalrand
	rand.Shuffle(3, func(i, j int) {}) // want:globalrand
	return x
}

func goodInjected(r *rand.Rand) float64 {
	return r.Float64() + float64(r.Intn(10)) // ok: seeded, injected source
}

// constructor builds a seeded generator: fine in a client, flagged
// under internal/, where the engine seeds sim.NewRand instead.
func constructor(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want:globalrand
}

func ignored() float64 {
	//lint:ignore globalrand fixture demonstrates the suppression path
	return rand.Float64()
}
