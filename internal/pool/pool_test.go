package pool

import "testing"

type obj struct {
	n    int
	next *obj
}

func TestFreeLIFOAndStats(t *testing.T) {
	var f Free[obj]
	a := f.Get()
	b := f.Get()
	if a == b {
		t.Fatal("Get returned the same object twice")
	}
	if got := f.Stats(); got.Hits != 0 || got.Misses != 2 {
		t.Fatalf("stats after two fresh Gets = %+v, want 0 hits / 2 misses", got)
	}
	f.Put(a)
	f.Put(b)
	if len(f.items) != 2 {
		t.Fatalf("Len = %d, want 2", len(f.items))
	}
	// LIFO: the most recently Put object comes back first.
	if got := f.Get(); got != b {
		t.Fatal("first Get after Put(a), Put(b) was not b")
	}
	if got := f.Get(); got != a {
		t.Fatal("second Get was not a")
	}
	if got := f.Stats(); got.Hits != 2 || got.Misses != 2 {
		t.Fatalf("stats after reuse = %+v, want 2 hits / 2 misses", got)
	}
	if len(f.items) != 0 {
		t.Fatalf("Len = %d, want 0", len(f.items))
	}
}

func TestFreeResetRunsAtPut(t *testing.T) {
	leaked := &obj{n: 99}
	f := Free[obj]{Reset: func(x *obj) { *x = obj{} }}
	x := f.Get()
	x.n = 7
	x.next = leaked
	f.Put(x)
	// Reset runs at Put time: the retained pointer is dropped while the
	// object idles in the list, not lazily at the next Get.
	if x.n != 0 || x.next != nil {
		t.Fatalf("object not reset at Put: %+v", x)
	}
	if got := f.Get(); got != x || got.n != 0 || got.next != nil {
		t.Fatalf("recycled object dirty: %+v", got)
	}
}

func TestFreePutNilNoop(t *testing.T) {
	var f Free[obj]
	f.Put(nil)
	if len(f.items) != 0 {
		t.Fatalf("Len after Put(nil) = %d, want 0", len(f.items))
	}
	if got := f.Get(); got == nil {
		t.Fatal("Get returned nil")
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{Hits: 1, Misses: 2}
	s.Add(Stats{Hits: 10, Misses: 20})
	if s.Hits != 11 || s.Misses != 22 {
		t.Fatalf("Add = %+v", s)
	}
}
