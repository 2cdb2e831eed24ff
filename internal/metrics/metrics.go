// Package metrics is the pipeline's zero-dependency observability
// layer: a registry of counters, gauges, and fixed-bucket histograms
// with an atomic hot path (no locks on the increment side) and
// snapshot-on-read exposition. The Registry serves Prometheus text
// exposition and a JSON variant over HTTP (expose.go), and Health
// (health.go) tracks per-stage liveness for /healthz.
//
// The design follows the repo's instrumentation rules:
//
//   - Registration is eager and idempotent: components register every
//     series they may ever emit at construction/Instrument time (so the
//     metric catalogue is complete even on a clean run), and registering
//     the same name+labels twice returns the same metric.
//   - Increments are lock-free: Counter, Gauge, and Histogram mutate
//     only atomics. The registry mutex is touched at registration and
//     snapshot time, never per-observation.
//   - A nil *Registry is valid everywhere and hands out throwaway
//     metrics, so library code can instrument unconditionally.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a metric family.
type Kind string

// The three family kinds, named as Prometheus TYPE lines render them.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas panic (counters are monotonic).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: negative counter add")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket edges in increasing order; an implicit +Inf bucket catches the
// overflow. Observation is lock-free (one atomic add per observation
// plus a CAS loop for the running sum).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	sumBits atomic.Uint64
}

// DurationBuckets is the default latency bucketing in seconds, spanning
// sub-millisecond flow actions to multi-minute downloads.
func DurationBuckets() []float64 {
	return []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}
}

// SizeBuckets is the default power-of-two bucketing for batch sizes and
// object counts.
func SizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// nameRE is the Prometheus metric/label name grammar.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// series is one labeled instance within a family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // function-backed counter/gauge
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series // keyed by label signature
	order  []string           // signatures in registration order
}

// Registry holds metric families and hands out their series. All
// methods are safe for concurrent use; a nil *Registry hands out
// unregistered throwaway metrics and renders empty.
type Registry struct {
	mu       sync.Mutex
	base     []Label // appended to every series (per-run/tenant identity)
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// NewLabeledRegistry returns an empty registry whose base labels are
// stamped onto every series registered with it. This is how the engine
// gives each workflow run its own child registry: components keep
// emitting the same family names they always did, and the run/tenant
// identity rides in as labels — so several runs' registries can be
// merged into one exposition (MergeFamilies) without any series
// colliding and without re-registration panics.
func NewLabeledRegistry(labels ...Label) *Registry {
	for _, l := range labels {
		if !nameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid base label key %q", l.Key))
		}
	}
	return &Registry{base: append([]Label(nil), labels...), families: map[string]*family{}}
}

// BaseLabels returns the labels stamped onto every series.
func (r *Registry) BaseLabels() []Label {
	if r == nil {
		return nil
	}
	return append([]Label(nil), r.base...)
}

// signature renders labels into a stable map key, sorted by label key.
func signature(labels []Label) string {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// register finds or creates the family and series for name+labels,
// panicking on name grammar violations and kind conflicts (both are
// programming errors the tests catch).
func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q in %s", l.Key, name))
		}
	}
	if len(r.base) > 0 {
		labels = append(append([]Label(nil), r.base...), labels...)
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-requested as %s", name, fam.kind, kind))
	}
	sig := signature(labels)
	s, ok := fam.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		fam.series[sig] = s
		fam.order = append(fam.order, sig)
	}
	return s
}

// Counter returns the counter for name+labels, registering it on first
// use. Idempotent: the same name+labels always yield the same Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, KindCounter, labels)
	if s.fn != nil {
		panic(fmt.Sprintf("metrics: %s%v is function-backed", name, labels))
	}
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, KindGauge, labels)
	if s.fn != nil {
		panic(fmt.Sprintf("metrics: %s%v is function-backed", name, labels))
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram for name+labels, registering it with
// the given bucket bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, KindHistogram, labels)
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time — for values a component already tracks (queue depths, worker
// counts). Re-registering the same name+labels replaces fn, so a
// successor component (e.g. a fresh executor with the same label) takes
// over the series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, KindGauge, labels)
	s.fn = fn
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time; fn must be monotonic. Re-registering replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, KindCounter, labels)
	s.fn = fn
}

// HistogramSnapshot is the frozen state of one histogram series.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges; Cumulative[i] counts
	// observations <= Bounds[i]. The +Inf bucket equals Count.
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
	Count      int64     `json:"count"`
	Sum        float64   `json:"sum"`
}

// Series is the frozen state of one labeled series.
type Series struct {
	Labels    []Label            `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Family is the frozen state of one metric family.
type Family struct {
	Name   string   `json:"name"`
	Help   string   `json:"help"`
	Kind   Kind     `json:"kind"`
	Series []Series `json:"series"`
}

// Snapshot freezes every family for exposition, families in
// registration order, series in registration order within a family.
func (r *Registry) Snapshot() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.order))
	for _, name := range r.order {
		fam := r.families[name]
		fs := Family{Name: fam.name, Help: fam.help, Kind: fam.kind}
		for _, sig := range fam.order {
			s := fam.series[sig]
			snap := Series{Labels: s.labels}
			switch {
			case s.fn != nil:
				snap.Value = s.fn()
			case s.counter != nil:
				snap.Value = float64(s.counter.Value())
			case s.gauge != nil:
				snap.Value = float64(s.gauge.Value())
			case s.hist != nil:
				h := &HistogramSnapshot{
					Bounds:     append([]float64(nil), s.hist.bounds...),
					Cumulative: make([]int64, len(s.hist.bounds)),
					Sum:        s.hist.Sum(),
				}
				var cum int64
				for i := range s.hist.counts {
					cum += s.hist.counts[i].Load()
					if i < len(h.Cumulative) {
						h.Cumulative[i] = cum
					}
				}
				h.Count = cum
				snap.Histogram = h
			}
			fs.Series = append(fs.Series, snap)
		}
		out = append(out, fs)
	}
	return out
}
