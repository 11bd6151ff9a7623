package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pixel"
	"pixel/api"
	"pixel/fleet"
)

// The sweep-fleet workload: a closed loop of POST /v1/sweep requests
// over e.nproc connections, in batches: the batch's grids go to the
// coordinator (two worker servers), and then the same grids to a
// standalone server with its own engine, whose bodies must match.
const (
	// A slice's base size is sweepBatches batches of sweepBatch grids:
	// a thousand requests, whose p99 has ten samples above it.
	sweepBatch   = 250
	sweepBatches = 4
	// sweepRepeatShare of requests repeat one of the last sweepRecent
	// grids, which the worker LRUs still hold. The share is an
	// assumption, not taken from recorded traffic.
	sweepRepeatShare = 0.3
	sweepRecent      = 32
	// sweepDigestGrids is how many leading grids of the sequence the
	// digest folds. They are drawn from refSeed, not from the workload
	// seed, so the digest can be compared with its pinned value; every
	// run completes at least these.
	sweepDigestGrids = 64
	sweepSequence    = 1 << 14
)

var sweepDesigns = []string{"EE", "OE", "OO"}

type sweepGrid struct {
	req    api.SweepRequest
	body   []byte
	points int
	repeat bool
}

type sweepEnv struct {
	workers   []*pixel.Engine
	single    *pixel.Engine
	fleetURL  string
	singleURL string
	digest    digest

	// Observed by the phase across its slices; the per-layer metrics
	// read them too.
	next          int // index of the next grid of the sequence
	records       []sweepRecord
	pointRates    []float64 // points per second of coordinator-only wall time, per batch
	sliceP99s     []float64 // coordinator p99 of each slice, ms
	elapsed       time.Duration
	cacheHits     int64 // worker engines, during the phase
	costCalls     int64
	before, after fleetCounters
	started       bool
	digestResults [][]float64
}

type sweepRecord struct {
	grid          *sweepGrid
	fleet, single interval
	ok            bool
	fleetSpan     int
	singleSpan    int
}

func (e *env) setupSweep() error {
	se := &e.sweep
	var addrs []string
	for _, name := range []string{"worker-a", "worker-b"} {
		eng := pixel.NewEngine(pixel.EngineOptions{})
		url, err := e.serve(e.newServer(name, eng, nil).Serve)
		if err != nil {
			return err
		}
		se.workers = append(se.workers, eng)
		addrs = append(addrs, url)
	}
	f, err := fleet.New(fleet.Options{Workers: addrs, Logger: quietLogger()})
	if err != nil {
		return err
	}
	e.stops = append(e.stops, f.Close)
	if se.fleetURL, err = e.serve(f.Serve); err != nil {
		return err
	}
	se.single = pixel.NewEngine(pixel.EngineOptions{})
	if se.singleURL, err = e.serve(e.newServer("standalone", se.single, nil).Serve); err != nil {
		return err
	}
	se.digestResults = make([][]float64, sweepDigestGrids)
	// First calls: network and config memos, connections, the
	// coordinator's ring and clients. lanes/bits 64 is one point per
	// network and design.
	warm := api.SweepRequest{Networks: pixel.Networks(), Designs: sweepDesigns, Lanes: []int{64}, Bits: []int{64}}
	body, err := json.Marshal(warm)
	if err != nil {
		return err
	}
	fb, _, err := e.postSweep(se.fleetURL, body)
	if err != nil {
		return fmt.Errorf("warm-up sweep through the coordinator: %w", err)
	}
	sb, _, err := e.postSweep(se.singleURL, body)
	if err != nil {
		return fmt.Errorf("warm-up sweep on the standalone server: %w", err)
	}
	if !bytes.Equal(fb, sb) {
		return fmt.Errorf("warm-up sweep: coordinator body differs from standalone body")
	}
	return nil
}

// sweepSequenceFrom draws n request grids after the given prefix: one
// of the six paper CNNs, every design, 2-4 lane counts and 2-4 bit
// widths from [1,64]; a repeatShare of them repeat a recent grid.
func sweepSequenceFrom(rng *rand.Rand, n int, repeatShare float64, prefix []*sweepGrid) []*sweepGrid {
	nets := pixel.Networks()
	out := make([]*sweepGrid, len(prefix)+n)
	copy(out, prefix)
	for i := len(prefix); i < len(out); i++ {
		if i >= sweepRecent && rng.Float64() < repeatShare {
			g := *out[i-1-rng.Intn(sweepRecent)]
			g.repeat = true
			out[i] = &g
			continue
		}
		req := api.SweepRequest{
			Networks: []string{nets[rng.Intn(len(nets))]},
			Designs:  sweepDesigns,
			Lanes:    distinctSorted(rng, 2+rng.Intn(3), 64),
			Bits:     distinctSorted(rng, 2+rng.Intn(3), 64),
		}
		body, _ := json.Marshal(req) // plain strings and ints always encode
		out[i] = &sweepGrid{req: req, body: body, points: len(sweepDesigns) * len(req.Lanes) * len(req.Bits)}
	}
	return out
}

// codes returns the pointCode of every point of the grid.
func (g *sweepGrid) codes() map[uint64]bool {
	out := map[uint64]bool{}
	for d := range sweepDesigns {
		for _, l := range g.req.Lanes {
			for _, b := range g.req.Bits {
				out[pointCode(pixel.Point{Design: pixel.Design(d), Lanes: l, Bits: b})] = true
			}
		}
	}
	return out
}

// distinctSorted draws k distinct values from [1,max] in ascending
// order.
func distinctSorted(rng *rand.Rand, k, max int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		v := 1 + rng.Intn(max)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// postSweep posts a sweep body and returns the raw response body.
func (e *env) postSweep(url string, body []byte) ([]byte, int, error) {
	resp, err := e.client.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, resp.StatusCode, nil
}

// parallel runs fn(0..n-1) on e.nproc client goroutines.
func (e *env) parallel(n int, fn func(j int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < n; j = int(next.Add(1)) - 1 {
				fn(j)
			}
		}()
	}
	wg.Wait()
}

// sweepBatch sends grids[i] for i in [lo,hi) first to the coordinator
// alone, timing the wall clock of that segment, and then to the
// standalone server, checking the bodies are byte-identical. Record ids
// below zero are calibration requests, kept out of the digest.
func (e *env) sweepBatch(grids []*sweepGrid, lo, hi, id0 int, rep *report) (recs []sweepRecord, wall time.Duration) {
	n := hi - lo
	recs = make([]sweepRecord, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	start := e.clock()
	e.parallel(n, func(j int) {
		g := grids[lo+j]
		t0 := e.clock()
		bodies[j], _, errs[j] = e.postSweep(e.sweep.fleetURL, g.body)
		recs[j] = sweepRecord{grid: g, fleet: interval{t0, e.clock()}}
	})
	wall = e.clock() - start
	e.parallel(n, func(j int) {
		rec, g, id := &recs[j], grids[lo+j], id0+j
		t1 := e.clock()
		sb, _, serr := e.postSweep(e.sweep.singleURL, g.body)
		rec.single = interval{t1, e.clock()}
		switch {
		case errs[j] != nil || serr != nil:
			rep.printf("sweep %d failed: coordinator %v, standalone %v", id, errs[j], serr)
		case !bytes.Equal(bodies[j], sb):
			rep.wrongf("sweep %d: coordinator body (%d bytes) differs from standalone body (%d bytes)", id, len(bodies[j]), len(sb))
		default:
			rec.ok = true
		}
		if rec.ok && id >= 0 && id < sweepDigestGrids {
			var resp api.SweepResponse
			if err := json.Unmarshal(bodies[j], &resp); err == nil {
				var vals []float64
				for _, r := range resp.Results[g.req.Networks[0]] {
					vals = append(vals, r.EnergyJ, r.LatencyS, r.EDP)
				}
				e.sweep.digestResults[id] = vals
			}
		}
		if e.tr != nil {
			net := g.req.Networks[0]
			rec.fleetSpan = e.tr.add(span{Name: "client.fleet_sweep", Start: rec.fleet.start, End: rec.fleet.end, Req: 2*id + 1, Tag: net, N: g.points})
			rec.singleSpan = e.tr.add(span{Name: "client.single_sweep", Start: rec.single.start, End: rec.single.end, Req: 2*id + 2, Tag: net, N: g.points})
		}
	})
	return recs, wall
}

// sweepSlice runs batches of the sequence: sweepBatches batches, and
// more until budget.
func (e *env) sweepSlice(budget time.Duration, rep *report) (int, error) {
	se := &e.sweep
	if !se.started {
		before, err := e.fleetCounters()
		if err != nil {
			return 0, err
		}
		se.before, se.started = before, true
	}
	hits0, calls0 := e.workerCounters()
	start := time.Now()
	ops := 0
	var lat []float64
	for b := 0; b < sweepBatches || time.Since(start) < budget; b++ {
		lo := se.next
		hi := min(lo+sweepBatch, len(e.in.seq))
		if lo >= hi {
			break
		}
		se.next = hi
		recs, wall := e.sweepBatch(e.in.seq, lo, hi, lo, rep)
		points, fails := 0, 0
		for _, r := range recs {
			if r.ok {
				points += r.grid.points
				lat = append(lat, ms(r.fleet.end-r.fleet.start))
			} else {
				fails++
			}
		}
		rep.count(len(recs), fails)
		se.records = append(se.records, recs...)
		se.pointRates = append(se.pointRates, float64(points)/wall.Seconds())
		ops += len(recs)
	}
	se.elapsed += time.Since(start)
	if p, ok := p99(lat); ok {
		se.sliceP99s = append(se.sliceP99s, p)
	}
	hits1, calls1 := e.workerCounters()
	se.cacheHits += hits1 - hits0
	se.costCalls += calls1 - calls0
	return ops, nil
}

// sweepFinish folds the digest grids and reports the phase.
func (e *env) sweepFinish(rep *report) error {
	se := &e.sweep
	after, err := e.fleetCounters()
	if err != nil {
		return err
	}
	se.after = after
	var fl, sl []float64
	var fails, repeats int
	for _, r := range se.records {
		if !r.ok {
			fails++
			continue
		}
		fl = append(fl, ms(r.fleet.end-r.fleet.start))
		sl = append(sl, ms(r.single.end-r.single.start))
		if r.grid.repeat {
			repeats++
		}
	}
	for i, vals := range se.digestResults {
		if vals == nil {
			rep.wrongf("sweep digest grid %d has no verified result", i)
			continue
		}
		se.digest.fold(vals...)
	}
	if len(fl) == 0 {
		return fmt.Errorf("no sweep request succeeded")
	}
	if len(se.sliceP99s) == 0 {
		return fmt.Errorf("no sweep slice had enough requests for a p99")
	}
	fs, ss := summarize(fl), summarize(sl)
	fp99, _ := p99(fl)
	rep.set("fleet_sweep_p50_ms", "ms", fs.P50)
	// The p99 is the median of the slices' p99s, so a burst of slow
	// requests in one slice, such as a stall of the shared host, moves
	// only that slice's value. The pooled p99 of a run moved by up to
	// half between runs of the same code.
	rep.set("fleet_sweep_p99_ms", "ms", median(se.sliceP99s))
	rep.set("single_sweep_p50_ms", "ms", ss.P50)
	rep.set("sweep_points_per_s", "points/s", median(se.pointRates))
	n := len(se.records)
	rep.printf("sweep: %d iterations in %.2fs over %d connections (%d repeated grids); sent %d ok %d failed %d; coordinator p50 %.3f ms p%.1f %.3f ms (n=%d, %d beyond) pooled p99 %.3f ms; standalone p50 %.3f ms p%.1f %.3f ms; coordinator %.0f points/s of wall time (median of %d batches)",
		n, se.elapsed.Seconds(), e.nproc, repeats, n, n-fails, fails, fs.P50, fs.TailQ*100, fs.Tail, fs.N, fs.Beyond, fp99, ss.P50, ss.TailQ*100, ss.Tail, median(se.pointRates), len(se.pointRates))
	rep.printf("sweep: coordinator points/s by batch %s; coordinator p99 ms by slice %s (median %.3f, reported)",
		fmtFloats(se.pointRates), fmtFloats(se.sliceP99s), median(se.sliceP99s))
	return nil
}

// sweepCalibrate times n iterations on grids drawn apart from the
// workload sequence, so both calibrations see cold grids, and returns
// each iteration's coordinator plus standalone milliseconds.
func (e *env) sweepCalibrate(n int) ([]float64, error) {
	discard := &report{metrics: map[string]metric{}, out: bufio.NewWriter(io.Discard)}
	recs, _ := e.sweepBatch(e.in.calib, 0, min(n, len(e.in.calib)), -len(e.in.calib)-1, discard)
	lat := make([]float64, 0, len(recs))
	for i, rec := range recs {
		if !rec.ok {
			return nil, fmt.Errorf("calibration sweep %d failed", i)
		}
		lat = append(lat, ms(rec.fleet.end-rec.fleet.start+rec.single.end-rec.single.start))
	}
	return lat, nil
}

func (e *env) workerCounters() (hits, calls int64) {
	for _, w := range e.sweep.workers {
		hits += w.CacheHits()
		calls += w.CostCalls()
	}
	return hits, calls
}

// fleetCounters are the coordinator /metrics counters the per-layer
// metrics difference.
type fleetCounters struct {
	retries, hedges, sweepShards int64
}

func (e *env) fleetCounters() (fleetCounters, error) {
	resp, err := e.client.Get(e.sweep.fleetURL + "/metrics")
	if err != nil {
		return fleetCounters{}, err
	}
	defer resp.Body.Close()
	var fc fleetCounters
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "pixelfleet_shard_retries_total":
			fc.retries = v
		case name == "pixelfleet_hedges_fired_total":
			fc.hedges = v
		case strings.HasPrefix(name, "pixelfleet_shards_total{") && strings.Contains(name, `route="/v1/sweep"`):
			fc.sweepShards += v
		}
	}
	return fc, sc.Err()
}
