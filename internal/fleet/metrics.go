package fleet

import "pixel/internal/metrics"

// shardBuckets are the shard-latency histogram bounds [s]: a warm
// worker answers an evaluate shard in well under a millisecond over
// loopback, a cold multi-network sweep shard can run into seconds.
// Coordinator request latency uses them too: a request is one or more
// shards plus the merge.
var shardBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// fleetMetrics is the coordinator's metric set, exported on /metrics
// under the pixelfleet_ prefix.
type fleetMetrics struct {
	reg metrics.Registry

	hedgesFired    *metrics.Counter // duplicate shard arms launched past the straggler deadline
	hedgesWon      *metrics.Counter // hedged arms that beat their primary
	retries        *metrics.Counter // shard attempts after the first (backoff + failover)
	evictions      *metrics.Counter // healthy->unhealthy worker transitions
	revivals       *metrics.Counter // unhealthy->healthy worker transitions
	breakerOpens   *metrics.Counter // circuit-breaker transitions into the open state
	breakerSkips   *metrics.Counter // candidates skipped because their breaker refused the call
	workersAdded   *metrics.Counter // members admitted via POST /v1/fleet/workers
	workersRemoved *metrics.Counter // members retired via DELETE /v1/fleet/workers
	salvageRounds  *metrics.Counter // salvage re-plan rounds run by fleet jobs
	salvagedUnits  *metrics.Counter // cells/σ-points kept from failed shards instead of re-run
	replannedUnits *metrics.Counter // cells/σ-points re-dispatched in salvage shards
	jobsParked     *metrics.Counter // fleet jobs that paused waiting for a healthy worker

	inFlight  *metrics.Gauge
	requests  *metrics.CounterVec // completed coordinator requests by route+status
	durations *metrics.Histogram  // coordinator request latency by route
	shards    *metrics.CounterVec // shards served, by winning worker and route
	shardDur  *metrics.Histogram  // shard latency by route
}

func newFleetMetrics(c *Coordinator) *fleetMetrics {
	m := &fleetMetrics{}
	r := &m.reg
	r.GaugeFunc("pixelfleet_workers", "Configured workers in the fleet.", func() int64 {
		members, _ := c.membership()
		return int64(len(members))
	})
	r.GaugeFunc("pixelfleet_workers_healthy", "Workers the prober currently trusts.", func() int64 { return int64(c.healthyCount()) })
	r.GaugeFunc("pixelfleet_breakers_open", "Workers whose circuit breaker currently refuses calls.", func() int64 { return int64(c.breakersOpen()) })
	m.hedgesFired = r.Counter("pixelfleet_hedges_fired_total", "Duplicate shard arms launched past the straggler deadline.")
	m.hedgesWon = r.Counter("pixelfleet_hedges_won_total", "Hedged arms that beat their primary.")
	m.retries = r.Counter("pixelfleet_shard_retries_total", "Shard attempts after the first (backoff and ring failover).")
	m.evictions = r.Counter("pixelfleet_worker_evictions_total", "Workers evicted after failed or draining health probes.")
	m.revivals = r.Counter("pixelfleet_worker_revivals_total", "Evicted workers revived by a good health probe.")
	m.breakerOpens = r.Counter("pixelfleet_breaker_opens_total", "Circuit-breaker transitions into the open state.")
	m.breakerSkips = r.Counter("pixelfleet_breaker_skips_total", "Candidate workers skipped because their breaker refused the call.")
	m.workersAdded = r.Counter("pixelfleet_workers_added_total", "Members admitted via the membership API.")
	m.workersRemoved = r.Counter("pixelfleet_workers_removed_total", "Members retired via the membership API.")
	m.salvageRounds = r.Counter("pixelfleet_salvage_rounds_total", "Salvage re-plan rounds run by fleet jobs.")
	m.salvagedUnits = r.Counter("pixelfleet_salvaged_units_total", "Cells and sigma points kept from failed shards instead of re-run.")
	m.replannedUnits = r.Counter("pixelfleet_replanned_units_total", "Cells and sigma points re-dispatched in salvage shards.")
	m.jobsParked = r.Counter("pixelfleet_jobs_parked_total", "Fleet jobs that paused waiting for a healthy worker.")
	m.inFlight = r.Gauge("pixelfleet_in_flight", "Coordinator requests currently being served.")
	m.requests = r.CounterVec("pixelfleet_requests_total", "Completed coordinator requests by route and status code.", "route", "code")
	m.durations = r.Histogram("pixelfleet_request_duration_seconds", "Coordinator request latency by route.", shardBuckets, "route")
	m.shards = r.CounterVec("pixelfleet_shards_total", "Shards served, by winning worker and route.", "worker", "route")
	m.shardDur = r.Histogram("pixelfleet_shard_duration_seconds", "Shard latency by route.", shardBuckets, "route")
	return m
}
