// Package obs is the in-flight observability layer of the evaluation
// framework: a lightweight metrics registry (counters, gauges, windowed
// histograms), cycle-sampled per-router telemetry, a flit-lifecycle tracer
// with Chrome trace-event export, and run-progress heartbeats.
//
// Everything in the package is nil-safe: a nil *Observer, *Registry,
// *Counter, *Gauge, *Histogram, *Tracer or *Progress turns every method
// into a no-op, so instrumented code pays only a nil check when
// observability is disabled and the per-cycle hot path stays allocation
// free (guarded by the benchmark in the repository root).
//
// Registries come in two flavours sharing one type: the per-run registry
// an Observer carries (one simulation's metrics), and the process-wide
// default registry (SetDefault/Default) that cross-run subsystems — the
// experiment cache, the worker pool, the cycle engine, the fault injector
// — publish into, and that the live export endpoint (internal/obs/export)
// serves. Because the default registry is read by an HTTP handler while
// simulations write it from worker goroutines, every instrument is safe
// for concurrent use: counters and gauges are atomics, histograms take a
// small mutex per observation.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric, safe for concurrent
// use.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one to the counter. A nil counter is a no-op.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d to the counter. A nil counter is a no-op.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count, 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64 metric, safe for concurrent use.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set records the gauge's current value. A nil gauge is a no-op.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by d (negative to decrease), for up/down values
// like in-flight request counts. A nil gauge is a no-op. Concurrent Adds
// are lossless (a CAS loop), but an Add racing a Set may be absorbed by
// the Set's last-value-wins semantics; instruments should pick one style.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last value set, 0 for a nil or never-set gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bin histogram over [lo, hi) with underflow and
// overflow captured in the edge bins. Reset supports windowed use: callers
// snapshot and clear it once per sample window. Observations take a mutex,
// so a histogram shared with the live exporter never tears.
type Histogram struct {
	name   string
	lo, hi float64

	mu       sync.Mutex
	bins     []int64
	count    int64
	sum      float64
	min, max float64
}

// Observe records one value. A nil histogram is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := int(float64(len(h.bins)) * (v - h.lo) / (h.hi - h.lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.mu.Unlock()
}

// Count returns the number of observations, 0 for a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of the observations, 0 when empty or nil.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Registry holds a set of named metrics. Components create their
// instruments through the registry; a nil registry hands back nil
// instruments, which keeps every recording site a nil check away from
// free. Instrument creation is get-or-create: asking for a name that
// already exists returns the existing instrument, so long-lived registries
// (the process-wide default) stay bounded however many runs publish into
// them.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	byName   map[string]any
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns the instrument already registered under name, if any.
// Callers hold r.mu.
func (r *Registry) lookup(name string) any {
	if r.byName == nil {
		r.byName = make(map[string]any)
		return nil
	}
	return r.byName[name]
}

// Counter registers and returns a named counter, or the existing one when
// the name is taken. On a nil registry it returns nil, which all Counter
// methods tolerate.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.lookup(name).(*Counter); ok {
		return c
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	r.byName[name] = c
	return c
}

// Gauge registers and returns a named gauge (or the existing one), or nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.lookup(name).(*Gauge); ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	r.byName[name] = g
	return g
}

// Histogram registers a histogram with the given bin count over [lo, hi)
// (or returns the existing histogram of that name), or nil on a nil
// registry. Degenerate ranges and bin counts are widened to something
// usable rather than rejected.
func (r *Registry) Histogram(name string, lo, hi float64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.lookup(name).(*Histogram); ok {
		return h
	}
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &Histogram{name: name, lo: lo, hi: hi, bins: make([]int64, bins)}
	r.hists = append(r.hists, h)
	r.byName[name] = h
	return h
}

// MetricPoint is one exported metric value.
type MetricPoint struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge" or "histogram"
	Value float64 `json:"value"`
	// Histogram-only fields.
	Count int64   `json:"count,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Snapshot returns every metric's current value, sorted by name (stable
// across runs, so exports diff cleanly). Histograms export their mean as
// Value plus count/min/max. Safe to call while instruments are being
// written.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	var out []MetricPoint
	for _, c := range counters {
		out = append(out, MetricPoint{Name: c.name, Kind: "counter", Value: float64(c.Value())})
	}
	for _, g := range gauges {
		out = append(out, MetricPoint{Name: g.name, Kind: "gauge", Value: g.Value()})
	}
	for _, h := range hists {
		h.mu.Lock()
		p := MetricPoint{Name: h.name, Kind: "histogram", Count: h.count, Min: h.min, Max: h.max}
		if h.count > 0 {
			p.Value = h.sum / float64(h.count)
		}
		h.mu.Unlock()
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// JSON renders the snapshot as an indented JSON array.
func (r *Registry) JSON() ([]byte, error) {
	snap := r.Snapshot()
	if snap == nil {
		snap = []MetricPoint{}
	}
	return json.MarshalIndent(snap, "", "  ")
}

// CSV renders the snapshot as "name,kind,value,count,min,max" rows.
func (r *Registry) CSV() string {
	var b strings.Builder
	b.WriteString("name,kind,value,count,min,max\n")
	for _, m := range r.Snapshot() {
		fmt.Fprintf(&b, "%s,%s,%g,%d,%g,%g\n", m.Name, m.Kind, m.Value, m.Count, m.Min, m.Max)
	}
	return b.String()
}

// defaultReg is the process-wide registry, nil (disabled) by default.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs the process-wide default registry that cross-run
// subsystems (experiment cache, worker pool, cycle engine, fault layer)
// publish their counters into. Passing nil disables them again; every
// publishing site then holds nil instruments and the hot paths pay only a
// nil check.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Default returns the process-wide registry, or nil when cross-run
// metrics are disabled (the default).
func Default() *Registry { return defaultReg.Load() }
