package server

import "pixel/internal/metrics"

// durationBuckets are the latency histogram bounds [s]: the cached
// engine path is ~55µs, a cold single evaluate a few hundred µs, and a
// large multi-network sweep can run into seconds.
var durationBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// serverMetrics is pixeld's metric set, exported on /metrics under the
// pixeld_ prefix.
type serverMetrics struct {
	reg          metrics.Registry
	inFlight     *metrics.Gauge
	shed         *metrics.Counter
	coalesced    *metrics.Counter
	inferBatches *metrics.Counter
	inferImages  *metrics.Counter
	jobsCreated  *metrics.Counter
	jobsResumed  *metrics.Counter
	requests     *metrics.CounterVec
	durations    *metrics.Histogram
}

// newServerMetrics declares pixeld's families; the engine's cost-call
// and LRU-hit hooks are read at scrape time.
func newServerMetrics(eng Evaluator) *serverMetrics {
	m := &serverMetrics{}
	r := &m.reg
	m.inFlight = r.Gauge("pixeld_in_flight", "HTTP requests currently being served.")
	m.shed = r.Counter("pixeld_shed_total", "Requests rejected by admission control (HTTP 429).")
	m.coalesced = r.Counter("pixeld_coalesced_total", "Requests that shared an identical in-flight computation.")
	m.inferBatches = r.Counter("pixeld_infer_batches_total", "Batched /v1/infer engine passes.")
	m.inferImages = r.Counter("pixeld_infer_images_total", "Images served across batched /v1/infer passes.")
	m.jobsCreated = r.Counter("pixeld_jobs_created_total", "Durable jobs admitted via POST /v1/jobs.")
	m.jobsResumed = r.Counter("pixeld_jobs_resumed_total", "Jobs re-adopted from checkpoints at startup.")
	r.CounterFunc("pixeld_engine_cost_calls_total", "Evaluations actually priced by the engine (result-LRU misses).", eng.CostCalls)
	r.CounterFunc("pixeld_engine_cache_hits_total", "Evaluations absorbed by the engine result LRU.", eng.CacheHits)
	m.requests = r.CounterVec("pixeld_requests_total", "Completed HTTP requests by route and status code.", "route", "code")
	m.durations = r.Histogram("pixeld_request_duration_seconds", "HTTP request latency by route.", durationBuckets, "route")
	return m
}
