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

// Registry renders collected metric families as Prometheus text
// exposition (version 0.0.4). It exists so proteand can serve GET
// /metrics without pulling in a client library: the runtime stays
// zero-dependency, and the rendered text is deterministic — families
// and label sets are emitted in sorted order, values with fixed
// formatting — so tests can compare exposition output bytewise.
//
// The registry keeps no value of its own. Each owner registers one
// collector (Collect) that, at every render, declares its families on
// a Collection and reads their values from the owner's own state.
//
// All methods are safe for concurrent use; the HTTP server renders
// from many goroutines.
type Registry struct {
	mu         sync.Mutex
	collectors map[string]func(*Collection)
}

// metric family types, as emitted in the # TYPE comment.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type family struct {
	name   string
	help   string
	typ    string
	keys   []string
	series map[string]*series
}

type series struct {
	labels string    // rendered {k="v",...} or ""
	value  float64   // counter and gauge families
	hist   Histogram // histogram families: a copy taken at collect time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{collectors: make(map[string]func(*Collection))}
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	key := renderLabels(f.keys, values)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
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

// Histogram is a distribution of bucketed observations that its owner
// keeps, under the owner's own lock, and a collector renders with
// Collection.Histogram.
type Histogram struct {
	// Bounds are the ascending bucket upper bounds; the +Inf bucket is
	// implicit. They must not change once observations arrive.
	Bounds []float64
	// Counts[i] is the number of observations ≤ Bounds[i]; nil until
	// the first observation.
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h.Counts == nil {
		h.Counts = make([]uint64, len(h.Bounds))
	}
	for i, ub := range h.Bounds {
		if v <= ub {
			h.Counts[i]++
		}
	}
	h.Sum += v
	h.Count++
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
	return c.declare(name, help, typeCounter, keys).emit
}

// Gauge declares a collected gauge family and returns its emitter.
func (c *Collection) Gauge(name, help string, keys ...string) Emit {
	return c.declare(name, help, typeGauge, keys).emit
}

// Histogram declares a collected unlabeled histogram family and
// renders h, copied now so the owner may go on observing.
func (c *Collection) Histogram(name, help string, h Histogram) {
	s := c.declare(name, help, typeHistogram, nil).get(nil)
	s.hist = h
	s.hist.Counts = make([]uint64, len(h.Bounds))
	copy(s.hist.Counts, h.Counts)
}

func (c *Collection) declare(name, help, typ string, keys []string) *family {
	if _, dup := c.fams[name]; dup {
		panic(fmt.Sprintf("obs: metric %q is collected twice", name))
	}
	f := &family{name: name, help: help, typ: typ, keys: keys, series: make(map[string]*series)}
	c.fams[name] = f
	return f
}

func (f *family) emit(v float64, labels ...string) { f.get(labels).value = v }

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
// so the output for a given state of the owners is byte-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := r.collectAll()
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
				writeHistogram(&buf, f.name, s.hist)
				continue
			}
			fmt.Fprintf(&buf, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeHistogram renders an unlabeled histogram series.
func writeHistogram(buf *bytes.Buffer, name string, h Histogram) {
	for i, ub := range h.Bounds {
		fmt.Fprintf(buf, "%s_bucket{le=%q} %d\n", name, formatValue(ub), h.Counts[i])
	}
	fmt.Fprintf(buf, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(buf, "%s_sum %s\n", name, formatValue(h.Sum))
	fmt.Fprintf(buf, "%s_count %d\n", name, h.Count)
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float formatting, integers without a decimal
// point.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
