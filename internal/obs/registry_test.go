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
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(2)
	v := r.CounterVec("requests_total", "Requests by handler.", "handler", "code")
	v.With("simulate", "200").Inc()
	v.With("simulate", "400").Add(3)
	v.With("healthz", "200").Inc()
	g := r.Gauge("active", "Active runs.")
	g.Set(1.5)
	h := r.Histogram("latency_seconds", "Run latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP active Active runs.
# TYPE active gauge
active 1.5
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

func TestRegistryReusesSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.").Inc()
	r.Counter("x_total", "X.").Inc() // same family, same series
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x_total 2\n") {
		t.Errorf("exposition:\n%s", buf.String())
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("x_total", "X.").Add(-1)
}

func TestRegistryRejectsTypeMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "X.")
	defer func() {
		if recover() == nil {
			t.Error("re-registering as gauge did not panic")
		}
	}()
	r.Gauge("x", "X.")
}

func TestCounterVecRejectsArityMismatch(t *testing.T) {
	v := NewRegistry().CounterVec("x_total", "X.", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "Ops.", "worker")
	h := r.Histogram("dur_seconds", "Durations.", []float64{1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Re-register a collected family while other goroutines render.
		defer wg.Done()
		for i := 0; i < 100; i++ {
			v := float64(i)
			r.Collect("owner", func(c *Collection) { c.Gauge("live", "Live.")(v) })
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := strconv.Itoa(w)
			for i := 0; i < 100; i++ {
				v.With(label).Inc()
				h.Observe(float64(i % 3))
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dur_seconds_count 800\n") {
		t.Errorf("exposition:\n%s", buf.String())
	}
}

func TestCollectedFamilies(t *testing.T) {
	r := NewRegistry()
	renders := r.Counter("renders_total", "Renders.")
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
		renders.Inc()
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
# HELP renders_total Renders.
# TYPE renders_total counter
renders_total 1
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
	for name, setup := range map[string]func(r *Registry){
		"collected and pushed": func(r *Registry) {
			r.Counter("x_total", "X.")
			r.Collect("a", func(c *Collection) { c.Counter("x_total", "X.") })
		},
		"collected twice": func(r *Registry) {
			r.Collect("a", func(c *Collection) { c.Gauge("y", "Y.") })
			r.Collect("b", func(c *Collection) { c.Gauge("y", "Y.") })
		},
	} {
		r := NewRegistry()
		setup(r)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: render did not panic", name)
				}
			}()
			_ = r.WritePrometheus(io.Discard)
		}()
		// The panic left the registry usable.
		r.Collect("a", nil)
		r.Collect("b", nil)
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Errorf("%s: render after panic: %v", name, err)
		}
	}
}
