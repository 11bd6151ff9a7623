// Package metrics is the Prometheus registry pixeld and the fleet
// coordinator share: counters, gauges and labelled counter and
// histogram families, rendered in the text exposition format. It is
// stdlib-only and hand-rolled on purpose; each binary declares its own
// families and this package owns the wire format.
//
// Families render in registration order and series in sorted label
// order, so scrapes are diffable. Recording a sample allocates nothing
// once its label set has been seen.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// maxLabels bounds a family's label count; a fixed-size key keeps the
// series lookup allocation-free.
const maxLabels = 2

type labelValues [maxLabels]string

// Registry holds metric families and renders them. The zero value is
// ready to use.
type Registry struct {
	mu       sync.Mutex
	families []family
}

type family struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

func (r *Registry) add(name, help, typ string, write func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, family{name: name, help: help, typ: typ, write: write})
}

// WriteText renders every family in Prometheus text format 0.0.4.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.write(w, f.name)
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, c.Load)
	return c
}

// Gauge registers and returns an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, g.Load)
	return g
}

// CounterFunc registers a counter whose value f computes at scrape
// time, for counts another component already keeps.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.add(name, help, "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, f())
	})
}

// GaugeFunc registers a gauge whose value f computes at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(name, help, "gauge", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, f())
	})
}

// labelNames are a labelled family's label names, in render order.
type labelNames []string

func newLabelNames(names []string) labelNames {
	if len(names) == 0 || len(names) > maxLabels {
		panic("metrics: a labelled family takes 1 or 2 labels")
	}
	return names
}

// key packs values into a series key. A count mismatch is a
// declaration bug, not an input error.
func (l labelNames) key(values []string) labelValues {
	if len(values) != len(l) {
		panic("metrics: label value count does not match the family")
	}
	var k labelValues
	copy(k[:], values)
	return k
}

// sorted returns the keys of m in label order.
func sorted[V any](m map[labelValues]V) []labelValues {
	keys := make([]labelValues, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		for n := range keys[i] {
			if keys[i][n] != keys[j][n] {
				return keys[i][n] < keys[j][n]
			}
		}
		return false
	})
	return keys
}

// format renders k as `l1="v1",l2="v2"`.
func (l labelNames) format(k labelValues) string {
	s := ""
	for i, name := range l {
		if i > 0 {
			s += ","
		}
		s += name + "=" + strconv.Quote(k[i])
	}
	return s
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	labels labelNames
	mu     sync.Mutex
	vals   map[labelValues]int64
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: newLabelNames(labels), vals: map[labelValues]int64{}}
	r.add(name, help, "counter", v.write)
	return v
}

// Inc adds one to the series with the given label values.
func (v *CounterVec) Inc(values ...string) {
	k := v.labels.key(values)
	v.mu.Lock()
	v.vals[k]++
	v.mu.Unlock()
}

// Value returns the count of the series with the given label values.
func (v *CounterVec) Value(values ...string) int64 {
	k := v.labels.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.vals[k]
}

func (v *CounterVec) write(w io.Writer, name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sorted(v.vals) {
		fmt.Fprintf(w, "%s{%s} %d\n", name, v.labels.format(k), v.vals[k])
	}
}

// Histogram is a histogram family partitioned by label values, with
// bucket upper bounds the caller chooses.
type Histogram struct {
	labels  labelNames
	buckets []float64
	mu      sync.Mutex
	series  map[labelValues]*histSeries
}

type histSeries struct {
	counts []int64 // one per bucket, cumulative at render time only
	sum    float64
	count  int64
}

// Histogram registers a labelled histogram family over buckets, which
// must be sorted ascending; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	h := &Histogram{labels: newLabelNames(labels), buckets: buckets, series: map[labelValues]*histSeries{}}
	r.add(name, help, "histogram", h.write)
	return h
}

// Observe records one sample in the series with the given label values.
func (h *Histogram) Observe(v float64, values ...string) {
	k := h.labels.key(values)
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.series[k]
	if !ok {
		s = &histSeries{counts: make([]int64, len(h.buckets))}
		h.series[k] = s
	}
	for i, b := range h.buckets {
		if v <= b {
			s.counts[i]++
			break
		}
	}
	s.sum += v
	s.count++
}

func (h *Histogram) write(w io.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range sorted(h.series) {
		s := h.series[k]
		labels := h.labels.format(k)
		var cum int64
		for i, b := range h.buckets {
			cum += s.counts[i]
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, strconv.FormatFloat(b, 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, s.count)
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, s.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.count)
	}
}
