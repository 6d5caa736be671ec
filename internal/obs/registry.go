package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a small counters/gauges/histograms registry rendered as
// Prometheus text exposition (version 0.0.4). It exists so proteand can
// serve GET /metrics without pulling in a client library: the runtime
// stays zero-dependency, and the rendered text is deterministic —
// families and label sets are emitted in sorted order, values with
// fixed formatting — so tests can compare exposition output bytewise.
//
// A family is either pushed (Counter, Gauge, Histogram and their
// labeled forms hold the value and callers update it) or collected
// (Collect: the registry holds only a function that declares the
// families and reads their values from their owner at every render).
//
// All methods are safe for concurrent use; the HTTP server observes
// from many goroutines.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors map[string]func(*Collection)
}

// metric family types, as emitted in the # TYPE comment.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type family struct {
	name    string
	help    string
	typ     string
	keys    []string
	buckets []float64 // histogram upper bounds, ascending (no +Inf)
	series  map[string]*series
}

type series struct {
	labels string // rendered {k="v",...} or ""
	value  float64
	counts []uint64 // histogram: observations ≤ buckets[i]
	sum    float64
	count  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), collectors: make(map[string]func(*Collection))}
}

func (r *Registry) family(name, help, typ string, keys []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, keys: keys, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	key := renderLabels(f.keys, values)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		if f.typ == typeHistogram {
			s.counts = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing metric series.
type Counter struct {
	reg *Registry
	fam *family
	ser *series
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Counter{reg: r, fam: f, ser: f.get(nil)}
}

// CounterVec registers (or finds) a counter family with label keys.
type CounterVec struct {
	reg *Registry
	fam *family
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{reg: r, fam: r.family(name, help, typeCounter, keys, nil)}
}

// With returns the series for the given label values (created on first
// use).
func (v *CounterVec) With(values ...string) *Counter {
	v.reg.mu.Lock()
	defer v.reg.mu.Unlock()
	return &Counter{reg: v.reg, fam: v.fam, ser: v.fam.get(values)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (must be non-negative).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decreased")
	}
	c.reg.mu.Lock()
	c.ser.value += delta
	c.reg.mu.Unlock()
}

// Gauge is a metric series that can go up and down.
type Gauge struct {
	reg *Registry
	ser *series
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Gauge{reg: r, ser: f.get(nil)}
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.reg.mu.Lock()
	g.ser.value = v
	g.reg.mu.Unlock()
}

// Histogram is a metric series of bucketed observations.
type Histogram struct {
	reg *Registry
	fam *family
	ser *series
}

// Histogram registers (or finds) an unlabeled histogram with the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, buckets)
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Histogram{reg: r, fam: f, ser: f.get(nil)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.reg.mu.Lock()
	defer h.reg.mu.Unlock()
	for i, ub := range h.fam.buckets {
		if v <= ub {
			h.ser.counts[i]++
		}
	}
	h.ser.sum += v
	h.ser.count++
}

// Collect registers the collector key: at every render, collect runs
// once, declares its families on the Collection and emits their series;
// the registry keeps no value of its own. Registering key again
// replaces the collector, and a nil collect removes it.
func (r *Registry) Collect(key string, collect func(*Collection)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if collect == nil {
		delete(r.collectors, key)
		return
	}
	r.collectors[key] = collect
}

// Collection receives the families the collectors declare in one render.
type Collection struct{ fams map[string]*family }

// Emit reports one series of a collected family: its value and its
// label values, in the order of the family's label keys.
type Emit func(value float64, labels ...string)

// Counter declares a collected counter family and returns its emitter.
func (c *Collection) Counter(name, help string, keys ...string) Emit {
	return c.declare(name, help, typeCounter, keys)
}

// Gauge declares a collected gauge family and returns its emitter.
func (c *Collection) Gauge(name, help string, keys ...string) Emit {
	return c.declare(name, help, typeGauge, keys)
}

func (c *Collection) declare(name, help, typ string, keys []string) Emit {
	if _, dup := c.fams[name]; dup {
		panic(fmt.Sprintf("obs: metric %q is collected twice", name))
	}
	f := &family{name: name, help: help, typ: typ, keys: keys, series: make(map[string]*series)}
	c.fams[name] = f
	return func(v float64, labels ...string) { f.get(labels).value = v }
}

// collectAll runs every collector. It runs without r.mu held: a
// collector takes its owner's lock, and a render must never hold the
// registry while it waits for that.
func (r *Registry) collectAll() map[string]*family {
	r.mu.Lock()
	keys := make([]string, 0, len(r.collectors))
	for key := range r.collectors {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	cs := make([]func(*Collection), len(keys))
	for i, key := range keys {
		cs[i] = r.collectors[key]
	}
	r.mu.Unlock()
	c := &Collection{fams: make(map[string]*family)}
	for _, collect := range cs {
		collect(c)
	}
	return c.fams
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Families are sorted by name and series by rendered label set,
// so the output for a given registry state is byte-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := r.collectAll()
	r.mu.Lock()
	for name, f := range r.families {
		if _, dup := fams[name]; dup {
			r.mu.Unlock()
			panic(fmt.Sprintf("obs: metric %q is both pushed and collected", name))
		}
		fams[name] = f
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if f.typ == typeHistogram {
				writeHistogram(&buf, f, s)
				continue
			}
			fmt.Fprintf(&buf, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

func writeHistogram(buf *bytes.Buffer, f *family, s *series) {
	// s.labels is "" for the unlabeled histograms the registry exposes;
	// bucket series append le inside fresh braces.
	for i, ub := range f.buckets {
		fmt.Fprintf(buf, "%s_bucket{le=%q} %d\n", f.name, formatValue(ub), s.counts[i])
	}
	fmt.Fprintf(buf, "%s_bucket{le=\"+Inf\"} %d\n", f.name, s.count)
	fmt.Fprintf(buf, "%s_sum %s\n", f.name, formatValue(s.sum))
	fmt.Fprintf(buf, "%s_count %d\n", f.name, s.count)
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float formatting, integers without a decimal
// point.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
