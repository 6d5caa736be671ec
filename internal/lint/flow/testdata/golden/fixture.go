// Package golden holds one stable finding per flow analyzer; the
// rendered output is pinned byte-for-byte in golden.txt so any change
// to finding order, positions, or message text is a reviewed diff.
package golden

import "math/rand"

var rng = rand.New(rand.NewSource(1))

// Draw trips rngflow: the stream advances in map-iteration order.
func Draw(m map[string]int) int {
	t := 0
	for range m {
		t += rng.Intn(2)
	}
	return t
}

// Hot trips hotalloc: a hot function calling make.
//
//protean:hotpath
func Hot(n int) []int {
	return make([]int, n)
}
