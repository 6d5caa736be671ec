package controlplane

import "protean/internal/obs"

// traceCap bounds the in-memory lifecycle event ring.
const traceCap = 65536

// ringTracer is a bounded in-memory event collector: the plane keeps
// the most recent traceCap lifecycle events for GET /v1/plane/trace. It
// is only touched from root simulation context and under the plane
// mutex, so it needs no locking of its own.
type ringTracer struct {
	events []obs.Event
	next   int // write cursor once the ring is full
	full   bool
}

// Enabled implements obs.Tracer.
func (r *ringTracer) Enabled() bool { return true }

// Emit implements obs.Tracer.
func (r *ringTracer) Emit(ev obs.Event) {
	if !r.full {
		r.events = append(r.events, ev)
		if len(r.events) == traceCap {
			r.full = true
		}
		return
	}
	r.events[r.next] = ev
	r.next = (r.next + 1) % traceCap
}

// snapshot returns buffered events oldest-first, optionally filtered to
// the named kinds.
func (r *ringTracer) snapshot(kinds []string) []obs.Event {
	var ordered []obs.Event
	if r.full {
		ordered = append(ordered, r.events[r.next:]...)
		ordered = append(ordered, r.events[:r.next]...)
	} else {
		ordered = append(ordered, r.events...)
	}
	if len(kinds) == 0 {
		return ordered
	}
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	out := ordered[:0]
	for _, ev := range ordered {
		if want[ev.Kind.String()] {
			out = append(out, ev)
		}
	}
	return out
}
