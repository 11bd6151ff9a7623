package metrics

import (
	"strings"
	"testing"
)

// TestWriteText pins the exposition format both binaries' scrapers
// parse: registration-ordered families, sorted series, cumulative
// buckets with %g-style bounds.
func TestWriteText(t *testing.T) {
	var r Registry
	c := r.Counter("x_total", "A counter.")
	g := r.Gauge("x_in_flight", "A gauge.")
	r.GaugeFunc("x_workers", "A computed gauge.", func() int64 { return 3 })
	v := r.CounterVec("x_requests_total", "By route and code.", "route", "code")
	h := r.Histogram("x_seconds", "Latency.", []float64{0.001, 0.5}, "route")

	c.Add(2)
	g.Add(1)
	v.Inc("/b", "200")
	v.Inc("/a", "404")
	v.Inc("/a", "200")
	v.Inc("/a", "200")
	h.Observe(0.0005, "/a")
	h.Observe(0.25, "/a")
	h.Observe(2, "/a")

	var sb strings.Builder
	r.WriteText(&sb)
	want := `# HELP x_total A counter.
# TYPE x_total counter
x_total 2
# HELP x_in_flight A gauge.
# TYPE x_in_flight gauge
x_in_flight 1
# HELP x_workers A computed gauge.
# TYPE x_workers gauge
x_workers 3
# HELP x_requests_total By route and code.
# TYPE x_requests_total counter
x_requests_total{route="/a",code="200"} 2
x_requests_total{route="/a",code="404"} 1
x_requests_total{route="/b",code="200"} 1
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{route="/a",le="0.001"} 1
x_seconds_bucket{route="/a",le="0.5"} 2
x_seconds_bucket{route="/a",le="+Inf"} 3
x_seconds_sum{route="/a"} 2.2505
x_seconds_count{route="/a"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if n := v.Value("/a", "200"); n != 2 {
		t.Errorf("Value = %d, want 2", n)
	}
}

// TestRecordingDoesNotAllocate: once a series exists, recording into
// it allocates nothing, so the serving middleware adds no per-request
// garbage.
func TestRecordingDoesNotAllocate(t *testing.T) {
	var r Registry
	v := r.CounterVec("v_total", "v", "route", "code")
	h := r.Histogram("h_seconds", "h", []float64{1}, "route")
	route, code := "/v1/infer", "200"
	v.Inc(route, code)
	h.Observe(0.1, route)
	if n := testing.AllocsPerRun(100, func() {
		v.Inc(route, code)
		h.Observe(0.1, route)
	}); n != 0 {
		t.Errorf("recording allocates %v times per call", n)
	}
}
