package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/bitserial"
	"pixel/internal/montecarlo"
	"pixel/internal/qnn"
	"pixel/internal/server"
	"pixel/internal/tensor"
)

// The infer-open workload: an open loop of POST /v1/infer requests
// with seeded Poisson arrivals. A slice runs a nominal step, which
// offers nominalRate for nominalChunk requests, and then saturationSteps
// saturation steps, which offer saturationRate for saturationChunk
// requests each: far more than nproc connections carry, so their
// backlog grows by design, and the images they complete per second are
// the serving ceiling. The phase's nominal requests pool into one
// latency distribution, whose p99 needs a thousand of them.
const (
	nominalChunk    = 250
	saturationChunk = 150
	saturationSteps = 2
	// nominalRate is an assumed load, not one taken from recorded
	// traffic: under a third of the ceiling this mix reaches on a
	// shared 2-core host.
	nominalRate    = 150.0
	saturationRate = 3000.0
	// latencyLimit is the p99 the nominal step is expected to meet:
	// ten default batch windows.
	latencyLimit = 10 * server.DefaultBatchWindow
	// behindLimit flags a generator whose own timer sent requests more
	// than two and a half batch windows after they were due, at p99.
	// Lateness below it is scheduler noise of a generator that shares
	// the CPUs with the server, and is charged to latency either way.
	behindLimit = 5 * server.DefaultBatchWindow / 2
)

// inferKind is one class of request in the traffic mix.
type inferKind struct {
	name      string
	network   string
	images    int
	share     float64
	templates []*inferTemplate
}

// inferTemplate is one pre-encoded request body with the outputs the
// sequential oracle computed for its images during set-up.
type inferTemplate struct {
	body    []byte
	want    [][]int64
	argmax  []int
	first   uint64 // hash of the first image, to find its pass in a trace
	images  int
	network string
}

type inferEnv struct {
	url string

	// Observed by the phase across its slices; the per-layer metrics
	// read records and shed.
	records []inferRecord
	shed    int
	steps   int
	nominal []float64 // latency of every nominal request, ms from due
	sats    []float64 // completed images/s of every saturation step
}

// inferRecord is one request's outcome.
type inferRecord struct {
	req     openRequest
	tmpl    *inferTemplate
	status  int
	batched int
	ok      bool
	nominal bool // sent in a nominal step, not a saturation step
	spanID  int
}

// buildInferInputs draws the image pools from the seed, runs them
// through the sequential oracle (RunContext on FastEngine) and encodes
// the request templates of the traffic mix.
func (in *inputs) buildInferInputs(seed int64) error {
	rng := rand.New(rand.NewSource(mixSeed(seed, 1)))
	pools := map[string]*imagePool{}
	for _, spec := range []struct {
		net string
		n   int
	}{{"lenet", 256}, {"tiny", 64}} {
		p, err := newImagePool(spec.net, spec.n, rng)
		if err != nil {
			return err
		}
		pools[spec.net] = p
		for _, out := range p.outputs {
			vals := make([]float64, len(out))
			for i, v := range out {
				vals[i] = float64(v)
			}
			in.inferDigest.fold(vals...)
		}
	}
	in.lenet = pools["lenet"]
	// The shares are assumptions, not taken from recorded traffic. They
	// put numbers on "most requests carry 1 LeNet image, some carry 8 or
	// 64, and a minority go to tiny"; the 64-image share of 2% was
	// chosen to keep the benchmark steady.
	in.kinds = []inferKind{
		{name: "lenet-1", network: "lenet", images: 1, share: 0.78},
		{name: "lenet-8", network: "lenet", images: 8, share: 0.08},
		{name: "lenet-64", network: "lenet", images: 64, share: 0.02},
		{name: "tiny-1", network: "tiny", images: 1, share: 0.12},
	}
	for k := range in.kinds {
		kind := &in.kinds[k]
		p := pools[kind.network]
		n := len(p.images) / kind.images * 2
		if kind.images == 1 {
			n = len(p.images)
		}
		for t := 0; t < n; t++ {
			idx := make([]int, kind.images)
			for i := range idx {
				idx[i] = rng.Intn(len(p.images))
			}
			if kind.images == 1 {
				idx[0] = t
			}
			tmpl, err := p.template(kind.network, idx)
			if err != nil {
				return err
			}
			kind.templates = append(kind.templates, tmpl)
		}
	}
	return nil
}

// setupInfer starts the inference server with the pixeld default batch
// knobs and sends one request of each kind.
func (e *env) setupInfer() error {
	srv := e.newServer("infer", pixel.NewEngine(pixel.EngineOptions{}), timedInfer{inner: server.PixelInfer{}, tr: e.tr})
	url, err := e.serve(srv.Serve)
	if err != nil {
		return err
	}
	e.infer.url = url
	for _, k := range e.in.kinds {
		if rec := e.sendInfer(k.templates[0]); !rec.ok {
			return fmt.Errorf("warm-up %s request failed with status %d", k.name, rec.status)
		}
	}
	return nil
}

// imagePool is a set of seeded images with their oracle outputs.
type imagePool struct {
	images  [][]int64
	outputs [][]int64
}

func newImagePool(name string, n int, rng *rand.Rand) (*imagePool, error) {
	net, err := montecarlo.BuildNetwork(name)
	if err != nil {
		return nil, err
	}
	fast, err := bitserial.NewFastEngine(net.Bits, net.Terms)
	if err != nil {
		return nil, err
	}
	maxV := net.Model.MaxActivation()
	p := &imagePool{}
	for i := 0; i < n; i++ {
		in := tensor.New(net.Input.H, net.Input.W, net.Input.C)
		for j := range in.Data {
			in.Data[j] = rng.Int63n(maxV + 1)
		}
		out, err := net.Model.RunContext(context.Background(), in, fastDotter{e: fast}, qnn.RunOptions{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("oracle %s image %d: %w", name, i, err)
		}
		p.images = append(p.images, in.Data)
		p.outputs = append(p.outputs, append([]int64(nil), out.Data...))
	}
	return p, nil
}

func (p *imagePool) template(network string, idx []int) (*inferTemplate, error) {
	req := api.InferRequest{Network: network}
	t := &inferTemplate{images: len(idx), first: hashImage(p.images[idx[0]]), network: network}
	for _, i := range idx {
		req.Images = append(req.Images, p.images[i])
		t.want = append(t.want, p.outputs[i])
		t.argmax = append(t.argmax, argmax(p.outputs[i]))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t.body = body
	return t, nil
}

func argmax(xs []int64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// sendInfer posts one request and checks its outputs against the
// oracle.
func (e *env) sendInfer(t *inferTemplate) inferRecord {
	rec := inferRecord{tmpl: t}
	resp, err := e.client.Post(e.infer.url+"/v1/infer", "application/json", bytes.NewReader(t.body))
	if err != nil {
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusOK {
		return rec
	}
	var out api.InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return rec
	}
	rec.batched = out.Batched
	rec.ok = matchOutputs(t, out)
	return rec
}

func matchOutputs(t *inferTemplate, out api.InferResponse) bool {
	if len(out.Results) != len(t.want) {
		return false
	}
	for i, r := range out.Results {
		if r.ArgMax != t.argmax[i] || len(r.Outputs) != len(t.want[i]) {
			return false
		}
		for j, v := range r.Outputs {
			if v != t.want[i][j] {
				return false
			}
		}
	}
	return true
}

// stepStat is one step's outcome.
type stepStat struct {
	offeredImgs  float64 // offered images/s, from the seeded schedule
	sent, ok     int
	failed, shed int
	lat          summary   // ms from due time; failures count as +Inf
	lats         []float64 // the latencies summarized
	p99          float64
	sendLateP99  float64 // ms, send time minus due time, all requests
	timerLateP99 float64 // ms, the same over requests a client slept for
	queued       int     // requests already due when a connection freed
	backlog      bool
	// completedImgs is images answered correctly per second, from the
	// first due time to the last response.
	completedImgs float64
}

// runOpen drives one open-loop step: n Poisson arrivals at rate, sent
// by e.nproc client goroutines that each take the next request, sleep
// until it is due and send it. A request that is already due when a
// client takes it waited for a free connection; that wait counts in
// its latency, which runs from the due time.
func (e *env) runOpen(rate float64, n int, rng *rand.Rand, rep *report) stepStat {
	dues := poissonSchedule(n, rate, rng.Float64)
	tmpls := e.mix(n, rng)
	offered := 0
	for _, t := range tmpls {
		offered += t.images
	}
	recs := make([]inferRecord, n)
	slept := make([]bool, n)
	base := e.clock() + time.Millisecond
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := base + dues[i]
				if d := due - e.clock(); d > 0 {
					time.Sleep(d)
					slept[i] = true
				}
				sent := e.clock()
				rec := e.sendInfer(tmpls[i])
				rec.req = openRequest{due: due, sent: sent, done: e.clock()}
				if e.tr != nil {
					rec.spanID = e.tr.add(span{Name: "client.infer", Start: due, End: rec.req.done,
						Req: len(e.infer.records) + i + 1, Key: []uint64{tmpls[i].first}, N: tmpls[i].images})
				}
				recs[i] = rec
			}
		}()
	}
	wg.Wait()

	st := stepStat{sent: n, offeredImgs: float64(offered) / dues[n-1].Seconds()}
	lat := make([]float64, n)
	var late, timerLate []float64
	reqs := make([]openRequest, n)
	for i, r := range recs {
		reqs[i] = r.req
		late = append(late, ms(r.req.lateness()))
		if slept[i] {
			timerLate = append(timerLate, ms(r.req.lateness()))
		} else {
			st.queued++
		}
		switch {
		case r.ok:
			st.ok++
			lat[i] = ms(r.req.latency())
		case r.status == http.StatusTooManyRequests:
			st.shed++
			lat[i] = math.Inf(1)
		default:
			st.failed++
			lat[i] = math.Inf(1)
			if r.status == http.StatusOK {
				rep.wrongf("infer: %d-image %s response differs from the sequential oracle", r.tmpl.images, r.tmpl.network)
			}
		}
	}
	st.lat, st.lats = summarize(lat), lat
	st.p99, _ = p99(lat)
	st.sendLateP99, _ = p99(late)
	st.timerLateP99, _ = p99(timerLate)
	st.backlog = growingBacklog(reqs, e.nproc)
	okImgs := 0
	last := reqs[0].done
	for i, r := range recs {
		if r.ok {
			okImgs += r.tmpl.images
		}
		if reqs[i].done > last {
			last = reqs[i].done
		}
	}
	st.completedImgs = float64(okImgs) / (last - reqs[0].due).Seconds()
	e.infer.records = append(e.infer.records, recs...)
	e.infer.shed += st.shed
	return st
}

// mix draws n requests holding each kind in its exact share (the
// first kind takes the rounding remainder), in seeded random order:
// every step offers the same work, so steps differ only in rate.
func (e *env) mix(n int, rng *rand.Rand) []*inferTemplate {
	out := make([]*inferTemplate, 0, n)
	for k := len(e.in.kinds) - 1; k >= 0; k-- {
		kind := e.in.kinds[k]
		count := int(math.Round(kind.share * float64(n)))
		if k == 0 {
			count = n - len(out)
		}
		for i := 0; i < count; i++ {
			out = append(out, kind.templates[rng.Intn(len(kind.templates))])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runStep runs open-loop step number step of the phase and prints its
// accounting.
func (e *env) runStep(name string, step int, rate float64, n int, rep *report) stepStat {
	st := e.runOpen(rate, n, rand.New(rand.NewSource(mixSeed(e.in.seed, int64(100+step)))), rep)
	recs := e.infer.records[len(e.infer.records)-n:]
	for i := range recs {
		recs[i].nominal = rate == nominalRate
	}
	rep.count(st.sent, st.failed+st.shed)
	rep.printf("infer step %d %s: offered %.0f req/s = %.1f images/s; sent %d ok %d failed %d shed %d; latency from due p50 %.3f ms p99 %.3f ms (n=%d); completed %.1f images/s; send late p99 %.3f ms (%d queued for a connection), generator timer late p99 %.3f ms; growing backlog %v",
		step, name, rate, st.offeredImgs, st.sent, st.ok, st.failed, st.shed, st.lat.P50, st.p99, st.lat.N,
		st.completedImgs, st.sendLateP99, st.queued, st.timerLateP99, st.backlog)
	if st.timerLateP99 > ms(behindLimit) {
		rep.printf("FLAG: infer step %d %s: the generator fell behind its schedule (timer late p99 %.3f ms > %.3f ms)",
			step, name, st.timerLateP99, ms(behindLimit))
	}
	return st
}

// inferSlice runs a nominal step and its saturation steps: once, and
// again until budget.
func (e *env) inferSlice(budget time.Duration, rep *report) (int, error) {
	ie := &e.infer
	start := time.Now()
	ops := 0
	for b := 0; b < 1 || time.Since(start) < budget; b++ {
		nom := e.runStep("nominal", ie.steps, nominalRate, nominalChunk, rep)
		if nom.backlog {
			rep.printf("FLAG: infer step %d: the nominal step's backlog grew", ie.steps)
		}
		ie.steps++
		ops += nom.sent
		ie.nominal = append(ie.nominal, nom.lats...)
		for i := 0; i < saturationSteps; i++ {
			sat := e.runStep("saturation", ie.steps, saturationRate, saturationChunk, rep)
			ie.steps++
			ops += sat.sent
			ie.sats = append(ie.sats, sat.completedImgs)
		}
	}
	return ops, nil
}

// inferFinish reports the phase. Latency percentiles pool every
// nominal request of the phase; the ceiling is the median over
// saturation steps.
func (e *env) inferFinish(rep *report) error {
	ie := &e.infer
	if len(ie.sats) == 0 {
		return fmt.Errorf("no infer step ran")
	}
	s := summarize(ie.nominal)
	p, ok := p99(ie.nominal)
	rep.set("infer_p50_ms", "ms", s.P50)
	rep.set("infer_max_images_per_s", "images/s", median(ie.sats))
	// The nominal p99 is printed, not reported as a bounded metric: on
	// a shared 2-core host it moved 13-35 ms between runs of the same
	// code, more than any 25% bound allows.
	rep.printf("infer: %d saturation steps over %d connections; nominal %.0f req/s p50 %.3f ms p99 %.3f ms over all %d nominal requests (%d above p99, supported %v); saturation ceiling %.1f images/s (median over saturation steps)",
		len(ie.sats), e.nproc, nominalRate, s.P50, p, s.N, s.N-1-rankIndex(s.N, 0.99), ok, median(ie.sats))
	if p > ms(latencyLimit) {
		rep.printf("FLAG: infer: nominal p99 %.3f ms is over the %v limit", p, latencyLimit)
	}
	return nil
}

// inferCalibrate times n closed-loop single-image requests.
func (e *env) inferCalibrate(n int) ([]float64, error) {
	k := e.in.kinds[0]
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		rec := e.sendInfer(k.templates[i%len(k.templates)])
		if !rec.ok {
			return nil, fmt.Errorf("infer request failed with status %d", rec.status)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// passSizes returns the histogram of batched pass sizes the requests
// to network ("" for all) reported, as pass counts: a pass of size b
// carrying requests of sizes s1..sk is counted once, since sum(si/b)
// over its requests is 1.
func (ie *inferEnv) passSizes(network string) map[int]float64 {
	h := map[int]float64{}
	for _, r := range ie.records {
		if r.ok && r.batched > 0 && (network == "" || r.tmpl.network == network) {
			h[r.batched] += float64(r.tmpl.images) / float64(r.batched)
		}
	}
	return h
}

// mixSeed derives an independent stream seed from the workload seed.
func mixSeed(seed, stream int64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) + uint64(stream)))
}

// splitmix64 is the SplitMix64 step: an increment and a finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
