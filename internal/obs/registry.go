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
// All methods are safe for concurrent use; the HTTP server observes
// from many goroutines.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
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
	return &Registry{families: make(map[string]*family)}
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

// GaugeVec registers (or finds) a gauge family with label keys.
type GaugeVec struct {
	reg *Registry
	fam *family
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	return &GaugeVec{reg: r, fam: r.family(name, help, typeGauge, keys, nil)}
}

// With returns the series for the given label values (created on first
// use).
func (v *GaugeVec) With(values ...string) *Gauge {
	v.reg.mu.Lock()
	defer v.reg.mu.Unlock()
	return &Gauge{reg: v.reg, ser: v.fam.get(values)}
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

// WritePrometheus renders the registry in Prometheus text exposition
// format. Families are sorted by name and series by rendered label set,
// so the output for a given registry state is byte-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	for _, name := range names {
		f := r.families[name]
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
