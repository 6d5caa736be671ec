// Package pool provides deterministic freelists for the simulator's hot
// objects (jobs, batches, request buffers).
//
// sync.Pool is deliberately not used: its per-P caches and GC-driven
// eviction make object reuse order depend on scheduler timing, and the
// simulator's contract is that every run is byte-identical for a
// seed. A Free list is a plain LIFO owned by one lane or by the root:
// reuse order is exactly put order, which the deterministic event
// schedule fixes.
//
// Ownership discipline (enforced by the poolflow lint rule):
//   - an object obtained from Get is owned until passed to Put;
//   - after Put the caller must not touch the object again — the next
//     Get may hand it to unrelated code;
//   - a Free list belongs to one simulation: only its events, root or
//     lane, may touch it, and they run one at a time on one goroutine.
package pool

// Stats counts freelist traffic: Hits is reuses served from the list,
// Misses is fresh allocations. Both are deterministic for a seed.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
}

// Free is a LIFO freelist of *T. The zero value is ready to use; Reset,
// when set, is applied to every object Put returns to the list, so Get
// always hands out a clean object.
type Free[T any] struct {
	// Reset clears an object for reuse. It runs at Put time, so stale
	// pointers are dropped immediately rather than living in the list.
	Reset func(*T)

	items []*T
	stats Stats
}

// Get pops the most recently Put object, or allocates a zero T when the
// list is empty.
func (f *Free[T]) Get() *T {
	if n := len(f.items); n > 0 {
		x := f.items[n-1]
		f.items[n-1] = nil
		f.items = f.items[:n-1]
		f.stats.Hits++
		return x
	}
	f.stats.Misses++
	return new(T)
}

// Put returns an object to the list after applying Reset. Putting nil
// is a no-op.
func (f *Free[T]) Put(x *T) {
	if x == nil {
		return
	}
	if f.Reset != nil {
		f.Reset(x)
	}
	f.items = append(f.items, x)
}

// Stats returns the hit/miss counters.
func (f *Free[T]) Stats() Stats { return f.stats }
