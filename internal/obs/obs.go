// Package obs is a zero-dependency observability layer for the CardNet
// stack: named counters, gauges, and fixed-bucket histograms collected in a
// Registry, a lightweight span/timer API, and a JSONL structured-event sink.
// Everything is safe for concurrent use and cheap enough for the estimation
// hot path (a handful of atomic adds per observation).
//
// A process-wide Default registry is what the core model, the bench harness,
// and the `cardnet serve` /metrics endpoint share. Instrumentation is always
// on; perfbench's obs.trace_overhead_pct measures what request tracing adds
// on top.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-write-wins float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the stored value (0 before the first Set).
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Registry is a namespace of metrics. Metrics are created on first use and
// live for the registry's lifetime; lookups after creation are read-locked.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	infos  map[string][]Label
}

// Default is the process-wide registry shared by the instrumented packages.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		infos:  make(map[string][]Label),
	}
}

// SetInfo registers (or replaces) an info series: a constant gauge with
// value 1 whose labels carry identity facts — the Prometheus build_info
// idiom. Exposed by WritePrometheus with the given label set and by Snapshot
// under "info". SetInfo is setup code, not hot-path code: every call takes
// the registry's write lock.
func (r *Registry) SetInfo(name string, labels ...Label) {
	r.mu.Lock()
	r.infos[name] = append([]Label(nil), labels...)
	r.mu.Unlock()
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counts[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counts[name]; ok {
		return c
	}
	c = &Counter{}
	r.counts[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds if needed (bounds are ignored when the histogram exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Snapshot returns a JSON-marshalable view of every metric: counter and
// gauge values plus histogram summaries (count/sum/mean, p50/p95/p99, and
// per-bucket cumulative counts), in the style of expvar. A non-finite gauge
// or histogram value encodes as the string "+Inf", "-Inf" or "NaN", so the
// document stays well-formed.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters := make(map[string]uint64, len(r.counts))
	for name, c := range r.counts {
		counters[name] = c.Value()
	}
	gauges := make(map[string]jsonFloat, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = jsonFloat(g.Value())
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	out := map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
	if len(r.infos) > 0 {
		infos := make(map[string]map[string]string, len(r.infos))
		for name, ls := range r.infos {
			lm := make(map[string]string, len(ls))
			for _, l := range ls {
				lm[l.Name] = l.Value
			}
			infos[name] = lm
		}
		out["info"] = infos
	}
	return out
}

// jsonFloat is a float64 that JSON can always carry: a non-finite value,
// which encoding/json refuses (failing the whole document), encodes as its
// Prometheus spelling in a string.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte(`"` + formatPromValue(v) + `"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler: a number, or a string
// holding one, "+Inf", "-Inf" and "NaN" included.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	v, err := strconv.ParseFloat(strings.Trim(string(b), `"`), 64)
	*f = jsonFloat(v)
	return err
}

// WriteJSON writes the snapshot as indented JSON with sorted keys (the
// /metrics wire format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names returns every registered metric name, sorted (test/debug helper).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counts)+len(r.gauges)+len(r.hists)+len(r.infos))
	for n := range r.infos {
		names = append(names, n)
	}
	for n := range r.counts {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
