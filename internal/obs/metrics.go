// Package obs is the repo's observability layer: a stdlib-only
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// with Prometheus text exposition, per-component structured loggers
// built on log/slog, and HTTP middleware for request IDs, per-route
// instrumentation, and pprof wiring.
//
// The package has no dependencies outside the standard library and no
// dependencies on the rest of the repo, so every layer (store, fsm,
// core, server, cmd) may import it freely.
//
// Metric naming follows the Prometheus conventions: everything is
// prefixed "stsmatch_", counters end in "_total", durations are in
// seconds and use "_seconds" histograms. README.md's metric catalogue
// ("Observability") is the one list of the series the pipeline
// registers, one row each; the root TestMetricsCatalogued holds it.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the Prometheus exposition type of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative; negative deltas are ignored
// to keep the counter monotonic).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations
// (typically latencies in seconds). Buckets are cumulative-at-export,
// Prometheus style, with an implicit +Inf bucket. The count is the sum
// of the buckets, not a second counter, so an export's _count always
// equals the +Inf bucket it was read with.
type Histogram struct {
	bounds  []float64 // ascending upper bounds (inclusive)
	buckets []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefLatencyBuckets are the default buckets for request/search
// latencies, spanning 100 µs to 10 s.
var DefLatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// family is one named metric family holding either a single unlabeled
// child (key "") or one child per label-value combination.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]any // labelKey -> *Counter | *Gauge | *Histogram | func() float64
}

const labelSep = "\x1f"

func (f *family) child(key string) any {
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var nc any
	switch f.typ {
	case typeCounter:
		nc = &Counter{}
	case typeGauge:
		nc = &Gauge{}
	case typeHistogram:
		nc = newHistogram(f.bounds)
	}
	f.children[key] = nc
	return nc
}

// Registry holds metric families and renders them for scraping.
// The zero value is not usable; call NewRegistry. All methods are safe
// for concurrent use. Registration is idempotent: asking for an
// existing name returns the existing family (and panics only if the
// type or label arity conflicts, which is a programming error).
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry used by the pipeline's
// built-in instrumentation.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) family(name, help string, typ metricType, labels []string, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.byName[name]
		if !ok {
			f = &family{
				name: name, help: help, typ: typ,
				labels: labels, bounds: bounds,
				children: make(map[string]any),
			}
			r.families = append(r.families, f)
			r.byName[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/%d labels (was %s/%d)",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, typeCounter, nil, nil).child("").(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, typeGauge, nil, nil).child("").(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.children[""] = fn
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, typeHistogram, nil, bounds).child("").(*Histogram)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values (created on
// first use). The number of values must match the registered labels.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(strings.Join(values, labelSep)).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values (created on first
// use). The number of values must match the registered labels.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(strings.Join(values, labelSep)).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, typeHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(strings.Join(values, labelSep)).(*Histogram)
}

// Point is one flattened metric sample, as the daemons' exit summaries
// and the benchmark read the registry through Gather. Histograms
// flatten to _count and _sum.
type Point struct {
	Name  string // full name including {labels}
	Value float64
}

// Gather flattens the registry into sorted points.
func (r *Registry) Gather() []Point {
	var out []Point
	r.mu.RLock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.RUnlock()
	for _, f := range fams {
		for _, key := range f.sortedKeys() {
			f.mu.RLock()
			c := f.children[key]
			f.mu.RUnlock()
			base := f.name + formatLabels(f.labels, key)
			switch m := c.(type) {
			case *Counter:
				out = append(out, Point{base, float64(m.Value())})
			case *Gauge:
				out = append(out, Point{base, float64(m.Value())})
			case func() float64:
				out = append(out, Point{base, m()})
			case *Histogram:
				out = append(out, Point{f.name + "_count" + formatLabels(f.labels, key), float64(m.Count())})
				out = append(out, Point{f.name + "_sum" + formatLabels(f.labels, key), m.Sum()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (f *family) sortedKeys() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// formatLabels renders {l1="v1",l2="v2"} for a child key, or "" when
// the family is unlabeled.
func formatLabels(labels []string, key string) string {
	if len(labels) == 0 {
		return ""
	}
	values := strings.Split(key, labelSep)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes quotes, backslashes and newlines exactly as the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", l, v)
	}
	b.WriteByte('}')
	return b.String()
}

// labelsWith renders labels plus one extra pair (used for the
// histogram "le" label).
func labelsWith(labels []string, key, extraName, extraVal string) string {
	all := append(append([]string(nil), labels...), extraName)
	k := key
	if len(labels) == 0 {
		k = extraVal
	} else {
		k = key + labelSep + extraVal
	}
	return formatLabels(all, k)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.RUnlock()
	for _, f := range fams {
		keys := f.sortedKeys()
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range keys {
			f.mu.RLock()
			c := f.children[key]
			f.mu.RUnlock()
			switch m := c.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(f.labels, key), m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(f.labels, key), m.Value())
			case func() float64:
				fmt.Fprintf(w, "%s%s %g\n", f.name, formatLabels(f.labels, key), m())
			case *Histogram:
				var cum uint64
				for i, ub := range m.bounds {
					cum += m.buckets[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelsWith(f.labels, key, "le", fmt.Sprintf("%g", ub)), cum)
				}
				cum += m.buckets[len(m.bounds)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelsWith(f.labels, key, "le", "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %g\n", f.name, formatLabels(f.labels, key), m.Sum())
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(f.labels, key), cum)
			}
		}
	}
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
