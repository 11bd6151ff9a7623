package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 from fewer than 1000 samples is a guess, so the
// reported tail falls back to the highest level the sample supports.
const minBeyond = 10

// tailLevels are the percentile levels a tail may be reported at,
// highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rankIndex is the 0-based nearest-rank index of quantile q in n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailLevel returns the highest level in tailLevels with at least
// minBeyond of n samples strictly above its rank, and that count.
// ok is false when even the median is unsupported.
func tailLevel(n int) (q float64, beyond int, ok bool) {
	for _, l := range tailLevels {
		b := n - 1 - rankIndex(n, l)
		if b >= minBeyond {
			return l, b, true
		}
	}
	return 0, 0, false
}

// quantile reads quantile q of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// summary is a timing distribution as the benchmark reports it: the
// median, and the highest percentile with minBeyond samples above it.
type summary struct {
	N      int
	P50    float64
	TailQ  float64 // level of Tail, e.g. 0.99
	Tail   float64
	Beyond int // samples above Tail
}

// summarize sorts a copy of xs and summarizes it.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.5)}
	if q, b, ok := tailLevel(len(s)); ok {
		out.TailQ, out.Tail, out.Beyond = q, quantile(s, q), b
	}
	return out
}

// p99 returns the 0.99 quantile of xs and whether the sample supports
// it (at least minBeyond samples above it).
func p99(xs []float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN(), false
	}
	return quantile(s, 0.99), len(s)-1-rankIndex(len(s), 0.99) >= minBeyond
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// interval is a closed-open time range on the benchmark clock.
type interval struct{ start, end time.Duration }

// selfTime is the length of parent minus the part of it that the
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// openRequest is one open-loop request's timeline, each instant on the
// benchmark clock: when the schedule said to send it, when a client
// actually sent it, and when its response was complete.
type openRequest struct {
	due, sent, done time.Duration
}

// latency is the time from due to done: a request that had to wait for
// a stalled generator or a busy connection is charged that wait.
func (r openRequest) latency() time.Duration { return r.done - r.due }

// lateness is how far behind its schedule the generator sent r.
func (r openRequest) lateness() time.Duration { return r.sent - r.due }

// backlogAt counts requests due by t whose response was not complete
// by t.
func backlogAt(reqs []openRequest, t time.Duration) int {
	n := 0
	for _, r := range reqs {
		if r.due <= t && r.done > t {
			n++
		}
	}
	return n
}

// growingBacklog reports whether the outstanding work kept rising
// through a step: the backlog at the last due time exceeds both what
// the connections can hold in flight and the backlog at the step's
// midpoint. A system that keeps pace drains back to a handful of
// requests; one past capacity accumulates roughly linearly. reqs must
// be in due order.
func growingBacklog(reqs []openRequest, conns int) bool {
	if len(reqs) < 2 {
		return false
	}
	mid := backlogAt(reqs, reqs[len(reqs)/2].due)
	end := backlogAt(reqs, reqs[len(reqs)-1].due)
	return end > 4*conns && end > mid
}

// poissonSchedule returns n due offsets of a Poisson process at rate
// per second, drawn from next (a uniform draw in [0,1)).
func poissonSchedule(n int, rate float64, next func() float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += -math.Log(1-next()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
