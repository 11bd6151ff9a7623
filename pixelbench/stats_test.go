package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.95, 49, true}, // 0.99 would leave 9 above it
		{10000, 0.999, 10, true},
		{200, 0.95, 10, true},
		{199, 0.9, 19, true},
		{20, 0.5, 10, true},
		{19, 0, 0, false},
	}
	for _, c := range cases {
		q, beyond, ok := tailLevel(c.n)
		if q != c.q || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %d, %v; want %v, %d, %v", c.n, q, beyond, ok, c.q, c.beyond, c.ok)
		}
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailQ != 0.99 || s.Tail != 990 || s.Beyond != 10 {
		t.Fatalf("summarize = %+v", s)
	}
	// Exactly ten samples lie above the reported tail.
	above := 0
	for _, x := range xs {
		if x > s.Tail {
			above++
		}
	}
	if above != s.Beyond {
		t.Fatalf("%d samples above the tail, summary says %d", above, s.Beyond)
	}
	if v, ok := p99(xs[:999]); ok || v != 991 {
		t.Fatalf("p99 of 999 samples = %v, %v; want 991 unsupported", v, ok)
	}
	if _, ok := p99(xs); !ok {
		t.Fatal("p99 of 1000 samples should be supported")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{10 * ms, 110 * ms}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * ms},
		{"disjoint", []interval{{20 * ms, 30 * ms}, {50 * ms, 70 * ms}}, 70 * ms},
		{"overlapping", []interval{{20 * ms, 50 * ms}, {40 * ms, 60 * ms}}, 60 * ms},
		{"nested", []interval{{20 * ms, 80 * ms}, {30 * ms, 40 * ms}}, 40 * ms},
		{"sticking out", []interval{{0, 20 * ms}, {100 * ms, 200 * ms}}, 80 * ms},
		{"outside", []interval{{200 * ms, 300 * ms}}, 100 * ms},
		{"unsorted chain", []interval{{60 * ms, 90 * ms}, {20 * ms, 40 * ms}, {35 * ms, 65 * ms}}, 30 * ms},
		{"covers all", []interval{{0, 50 * ms}, {45 * ms, 120 * ms}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDueTimeAccounting(t *testing.T) {
	ms := time.Millisecond
	// A generator stalled 30ms at its second request: the requests due
	// during the stall are sent late, and each is charged the wait.
	reqs := []openRequest{
		{due: 0, sent: 0, done: 4 * ms},
		{due: 10 * ms, sent: 40 * ms, done: 44 * ms},
		{due: 20 * ms, sent: 40 * ms, done: 45 * ms},
		{due: 50 * ms, sent: 50 * ms, done: 54 * ms},
	}
	wantLat := []time.Duration{4 * ms, 34 * ms, 25 * ms, 4 * ms}
	wantLate := []time.Duration{0, 30 * ms, 20 * ms, 0}
	for i, r := range reqs {
		if r.latency() != wantLat[i] || r.lateness() != wantLate[i] {
			t.Errorf("request %d: latency %v lateness %v; want %v %v", i, r.latency(), r.lateness(), wantLat[i], wantLate[i])
		}
	}
	// Timing from the send time instead would hide the stall.
	if reqs[1].done-reqs[1].sent != 4*ms {
		t.Fatal("fixture: service time should be 4ms")
	}
	if got := backlogAt(reqs, 30*ms); got != 2 {
		t.Fatalf("backlog during the stall = %d, want 2", got)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	var state uint64 = 1
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	dues := poissonSchedule(20000, 500, next)
	if !sort.SliceIsSorted(dues, func(i, j int) bool { return dues[i] < dues[j] }) {
		t.Fatal("due times are not increasing")
	}
	rate := float64(len(dues)) / dues[len(dues)-1].Seconds()
	if math.Abs(rate-500)/500 > 0.03 {
		t.Fatalf("offered rate %v, want 500 within 3%%", rate)
	}
}

// openLoop simulates an open loop of n requests due every gap on conns
// connections with a fixed service time, each request sent when due or
// when a connection frees.
func openLoop(n, conns int, gap, service time.Duration) []openRequest {
	free := make([]time.Duration, conns)
	out := make([]openRequest, n)
	for i := range out {
		due := time.Duration(i) * gap
		c := 0
		for j := range free {
			if free[j] < free[c] {
				c = j
			}
		}
		sent := due
		if free[c] > sent {
			sent = free[c]
		}
		free[c] = sent + service
		out[i] = openRequest{due: due, sent: sent, done: sent + service}
	}
	return out
}

func TestGrowingBacklog(t *testing.T) {
	ms := time.Millisecond
	// Two connections, 4ms service: capacity 500 requests/s.
	if growingBacklog(openLoop(1000, 2, 5*ms, 4*ms), 2) {
		t.Error("400/s on a 500/s system keeps pace but was flagged")
	}
	if !growingBacklog(openLoop(1000, 2, 1*ms, 4*ms), 2) {
		t.Error("1000/s on a 500/s system accumulates but was not flagged")
	}
	if !growingBacklog(openLoop(1000, 2, 4*ms/3, 4*ms), 2) {
		t.Error("750/s on a 500/s system accumulates but was not flagged")
	}
	// A burst that drains before the end is not a growing backlog.
	reqs := openLoop(1000, 2, 5*ms, 4*ms)
	for i := 100; i < 120; i++ {
		reqs[i].done += 50 * ms
	}
	if growingBacklog(reqs, 2) {
		t.Error("a drained burst was flagged")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name string }, want []string) {
		names := make([]string, len(got))
		for i, g := range got {
			names[i] = g.Name
		}
		sort.Strings(names)
		w := append([]string(nil), want...)
		sort.Strings(w)
		if len(names) != len(w) {
			t.Fatalf("%s: BENCHMARK.json has %d names, the program %d", kind, len(names), len(w))
		}
		for i := range w {
			if names[i] != w[i] {
				t.Fatalf("%s: BENCHMARK.json has %q where the program has %q", kind, names[i], w[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndNames)
	check("per_layer", bj.PerLayer, perLayerNames)
	var wl []string
	for w := range workloads {
		wl = append(wl, w)
	}
	ws := make([]struct{ Name string }, len(bj.Workloads))
	for i, w := range bj.Workloads {
		ws[i].Name = w.Name
	}
	check("workloads", ws, wl)
}
