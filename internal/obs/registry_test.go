package obs

import (
	"bytes"
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
