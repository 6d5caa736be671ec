package obs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	h := Histogram{Bounds: []float64{0.1, 1}}
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Collect("owner", func(c *Collection) {
		c.Counter("jobs_total", "Jobs processed.")(3)
		requests := c.Counter("requests_total", "Requests by handler.", "handler", "code")
		requests(1, "simulate", "200")
		requests(3, "simulate", "400")
		requests(1, "healthz", "200")
		c.Gauge("active", "Active runs.")(1.5)
		c.Histogram("latency_seconds", "Run latency.", h)
		c.Histogram("idle_seconds", "No observation yet.", Histogram{Bounds: []float64{1}})
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP active Active runs.
# TYPE active gauge
active 1.5
# HELP idle_seconds No observation yet.
# TYPE idle_seconds histogram
idle_seconds_bucket{le="1"} 0
idle_seconds_bucket{le="+Inf"} 0
idle_seconds_sum 0
idle_seconds_count 0
# HELP jobs_total Jobs processed.
# TYPE jobs_total counter
jobs_total 3
# HELP latency_seconds Run latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
# HELP requests_total Requests by handler.
# TYPE requests_total counter
requests_total{handler="healthz",code="200"} 1
requests_total{handler="simulate",code="200"} 1
requests_total{handler="simulate",code="400"} 3
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}

	// Rendering is read-only: a second render is byte-identical.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("second render differs")
	}
}

// TestCounterVecRejectsArityMismatch: an emit into a labeled counter
// family with the wrong number of label values panics at render.
func TestCounterVecRejectsArityMismatch(t *testing.T) {
	r := NewRegistry()
	r.Collect("a", func(c *Collection) { c.Counter("x_total", "X.", "a", "b")(1, "only-one") })
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	_ = r.WritePrometheus(io.Discard)
}

// TestRegistryConcurrentUse renders from several goroutines while
// others replace collectors and the owners they read update their
// state under their own lock.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	ops := make([]int, 8)
	h := Histogram{Bounds: []float64{1}}
	r.Collect("owner", func(c *Collection) {
		emit := c.Counter("ops_total", "Ops.", "worker")
		mu.Lock()
		defer mu.Unlock()
		for w, n := range ops {
			emit(float64(n), strconv.Itoa(w))
		}
		c.Histogram("dur_seconds", "Durations.", h)
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			// Replace a collector while other goroutines render.
			defer wg.Done()
			key := "live" + strconv.Itoa(g)
			for i := 0; i < 100; i++ {
				v := float64(i)
				r.Collect(key, func(c *Collection) { c.Gauge(key, "Live.")(v) })
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for w := range ops {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				mu.Lock()
				ops[w]++
				h.Observe(float64(i % 3))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"dur_seconds_count 800\n", `ops_total{worker="7"} 100` + "\n", "live3 99\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

func TestCollectedFamilies(t *testing.T) {
	r := NewRegistry()
	r.Collect("plane", func(c *Collection) {
		requests := c.Counter("tenant_requests_total", "Requests by tenant.", "tenant", "decision")
		c.Gauge("empty", "No series yet.")
		requests(3, "b", "admit")
		requests(1.5, "a", "shed")
		requests(2, "a", "admit")
	})
	r.Collect("market", func(c *Collection) {
		// A collector runs without the registry lock held, so it may
		// touch the registry itself.
		r.Collect("unused", nil)
		c.Gauge("price", "Spot price.")(0.25)
	})
	r.Collect("gone", func(c *Collection) { c.Gauge("gone", "Removed below.")(1) })
	r.Collect("gone", nil)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP empty No series yet.
# TYPE empty gauge
# HELP price Spot price.
# TYPE price gauge
price 0.25
# HELP tenant_requests_total Requests by tenant.
# TYPE tenant_requests_total counter
tenant_requests_total{tenant="a",decision="admit"} 2
tenant_requests_total{tenant="a",decision="shed"} 1.5
tenant_requests_total{tenant="b",decision="admit"} 3
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}

	// Registering a key again replaces the collector and all its
	// families: "empty" goes with it.
	r.Collect("plane", func(c *Collection) {
		c.Counter("tenant_requests_total", "Requests by tenant.", "tenant", "decision")(7, "c", "admit")
	})
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if text := buf.String(); strings.Contains(text, `tenant="a"`) || strings.Contains(text, "empty") ||
		!strings.Contains(text, `tenant_requests_total{tenant="c",decision="admit"} 7`+"\n") {
		t.Errorf("replaced collector still renders the old series:\n%s", text)
	}
}

func TestCollectedNameConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Collect("a", func(c *Collection) { c.Gauge("y", "Y.") })
	r.Collect("b", func(c *Collection) { c.Gauge("y", "Y.") })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a name collected twice did not panic")
			}
		}()
		_ = r.WritePrometheus(io.Discard)
	}()
	// The panic left the registry usable.
	r.Collect("b", nil)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("render after panic: %v", err)
	}
}
