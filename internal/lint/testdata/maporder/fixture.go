// Package fixture exercises the maporder analyzer: map iterations whose
// outcome depends on Go's randomized iteration order.
package fixture

import "sort"

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want:maporder
	}
	return keys
}

func goodSortedAfter(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sorted immediately after the loop
	}
	sort.Strings(keys)
	return keys
}

func goodSortSliceAfter(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sort.Slice after the loop
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func badSideEffectCall(m map[string]int, sink func(string)) {
	for k := range m {
		sink(k) // want:maporder
	}
}

func badValueCall(m map[string]func()) {
	for _, fn := range m {
		fn() // want:maporder
	}
}

func badBreak(m map[string]int) bool {
	found := false
	for _, v := range m {
		if v > 3 {
			found = true
			break // want:maporder
		}
	}
	return found
}

func badReturn(m map[string]int) int {
	for _, v := range m {
		return v // want:maporder
	}
	return 0
}

// MapSum accretes rounding error in randomized map order.
func MapSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want:maporder
	}
	return sum
}

// MapSub is the subtractive twin.
func MapSub(m map[string]float64) float64 {
	left := 100.0
	for _, v := range m {
		left = left - v // want:maporder
	}
	return left
}

// MapSumSorted is the required shape: collect, sort, then reduce in a
// fixed order.
func MapSumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k] // ok: slice iteration in sorted key order
	}
	return sum
}

// IntSum is exact regardless of order.
func IntSum(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v // ok: integer addition is associative
	}
	return t
}

// InvariantAdd adds the same term per entry; order cannot matter.
func InvariantAdd(m map[string]int) float64 {
	x := 0.0
	for range m {
		x += 0.5 // ok: loop-invariant term
	}
	return x
}

// PerIteration resets the accumulator every pass.
func PerIteration(m map[string]float64) float64 {
	worst := 0.0
	for _, v := range m {
		d := 0.0
		d += v // ok: declared inside the loop
		if d > worst {
			worst = d
		}
	}
	return worst
}

func goodMapWrite(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v // ok: map writes land in the same place regardless of order
	}
	return out
}

func goodDelete(m map[string]int) {
	for k := range m {
		delete(m, k) // ok: order-free builtin
	}
}

func goodNestedBreak(m map[string]int) int {
	n := 0
	for range m {
		for i := 0; i < 3; i++ {
			if i > 1 {
				break // ok: binds to the inner for loop
			}
			n++
		}
	}
	return n
}

func goodSliceRange(xs []string, sink func(string)) {
	for _, x := range xs {
		sink(x) // ok: slices iterate in declaration order
	}
}

func ignoredBreak(m map[string]int) bool {
	for _, v := range m {
		if v > 0 {
			//lint:ignore maporder any positive element proves the property
			break
		}
	}
	return len(m) > 0
}
