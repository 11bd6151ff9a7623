package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"pixel"
	"pixel/internal/arch"
	"pixel/internal/bitserial"
	"pixel/internal/cnn"
	"pixel/internal/montecarlo"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

// layerMetrics computes the per-layer metrics of a traced run: from the
// spans the adapters recorded during the phases, from the program's
// counters, and from direct calls into the layers made here.
func (e *env) layerMetrics(rep *report) error {
	rep.printf("per-layer metrics (each with the end-to-end metric it should move, on its workload):")
	e.inferLayers(rep)
	if err := e.qnnLayers(rep); err != nil {
		return err
	}
	if err := e.mcLayers(rep); err != nil {
		return err
	}
	if err := e.sweepLayers(rep); err != nil {
		return err
	}
	return archModel(rep)
}

// layer sets a per-layer metric and prints it with what it maps to.
func layer(rep *report, name, unit string, v float64, moves, note string) {
	rep.set(name, unit, v)
	if note != "" {
		note = "; " + note
	}
	rep.printf("  %-44s %14.4f %-9s -> %s%s", name, v, unit, moves, note)
}

// inferLayers matches each request to the batched pass that carried it
// (by image content, inside the request's time window).
func (e *env) inferLayers(rep *report) {
	const moves = "infer_p50_ms/infer_max_images_per_s on infer-open"
	passes := e.tr.byName("pixel.infer")
	byKey := map[uint64][]int{}
	var passTime time.Duration
	passImages := 0
	for i, p := range passes {
		for _, k := range p.Key {
			byKey[k] = append(byKey[k], i)
		}
		passTime += p.End - p.Start
		passImages += p.N
	}
	var selfs, queues []float64
	matched := 0
	nominal := 0
	for _, r := range e.infer.records {
		if !r.ok || !r.nominal {
			continue
		}
		nominal++
		for _, i := range byKey[r.tmpl.first] {
			p := passes[i]
			if p.Start < r.req.sent || p.End > r.req.done {
				continue
			}
			matched++
			e.tr.link(p.ID, r.spanID, e.tr.get(r.spanID).Req)
			selfs = append(selfs, ms(selfTime(interval{r.req.due, r.req.done}, []interval{p.iv()})))
			queues = append(queues, ms(p.Start-r.req.due))
			break
		}
	}
	h := e.infer.passSizes("")
	var nPasses, images float64
	for size, n := range h {
		nPasses += n
		images += n * float64(size)
	}
	rep.printf("  infer: %d of %d successful nominal-step requests matched to their pass", matched, nominal)
	layer(rep, "server.infer.self_ms_p50", "ms", median(selfs), "infer_p50_ms on infer-open", "nominal step: latency from due minus the pass's InferEvaluator time")
	qs := summarize(queues)
	q99, ok := p99(queues)
	note := fmt.Sprintf("nominal step: due time to pass start, n=%d", qs.N)
	if !ok {
		note += ", p99 unsupported"
	}
	layer(rep, "server.infer.queue_ms_p50", "ms", qs.P50, "infer_p50_ms on infer-open", note)
	layer(rep, "server.infer.queue_ms_p99", "ms", q99, "the printed nominal p99 on infer-open", note)
	layer(rep, "server.infer.images_per_pass", "images", images/nPasses, "infer_max_images_per_s on infer-open", "from the responses' batched field")
	layer(rep, "server.infer.passes", "count", nPasses, moves, "")
	layer(rep, "server.shed", "count", float64(e.infer.shed), moves, "429 responses, counted as failed")
	layer(rep, "pixel.infer.us_per_image", "us", float64(passTime)/float64(time.Microsecond)/float64(passImages),
		"infer_max_images_per_s on infer-open", fmt.Sprintf("InferEvaluator time over %d passes, %d images", len(passes), passImages))
}

// qnnLayers calls qnn, tensor and bitserial directly on the LeNet the
// server runs: RunBatch at the pass sizes observed, the fused stages
// one at a time, the sequential RunContext, and the im2col lowering.
func (e *env) qnnLayers(rep *report) error {
	const moves = "infer_max_images_per_s on infer-open"
	net, err := montecarlo.BuildNetwork("lenet")
	if err != nil {
		return err
	}
	bs, err := bitserial.NewBatchedStripes(net.Bits, net.Terms)
	if err != nil {
		return err
	}
	pool := e.in.lenet
	ins := make([]*tensor.Tensor, len(pool.images))
	for i, img := range pool.images {
		ins[i] = &tensor.Tensor{H: net.Input.H, W: net.Input.W, C: net.Input.C, Data: img}
	}
	ctx := context.Background()
	arena := tensor.NewArena()
	var parent int
	dotter := timedMulti{inner: bs, tr: e.tr, parent: &parent}

	// RunBatch replayed at the observed lenet pass sizes, scaled down
	// to at most replayImages images but keeping every size.
	const replayImages = 2048
	h := e.infer.passSizes("lenet")
	var total float64
	for s, n := range h {
		total += float64(s) * n
	}
	scale := math.Min(1, replayImages/total)
	var rbTime, dotTime, selfT time.Duration
	var macs, images int
	for _, size := range sortedKeys(h) {
		if size > len(ins) {
			continue
		}
		reps := int(math.Max(1, math.Round(h[size]*scale)))
		for r := 0; r <= reps; r++ {
			batch := ins[(r*size)%(len(ins)-size+1):][:size]
			parent = e.tr.open("qnn.runbatch")
			outs, err := net.Model.RunBatch(ctx, batch, dotter, qnn.RunOptions{Workers: 1, Arena: arena})
			e.tr.close(parent)
			if err != nil {
				return err
			}
			arena.Put(outs...)
			if r == 0 {
				continue // first call of a size warms scratch pools
			}
			p := e.tr.get(parent)
			var kids []interval
			var kidTime time.Duration
			for _, c := range e.tr.children(parent) {
				kids = append(kids, c.iv())
				kidTime += c.End - c.Start
				macs += c.N
			}
			rbTime += p.End - p.Start
			dotTime += kidTime
			selfT += selfTime(p.iv(), kids)
			images += size
		}
	}
	if images == 0 {
		return fmt.Errorf("no lenet pass was observed to replay")
	}
	usPer := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(images) }
	note := fmt.Sprintf("Workers 1, %d images replayed at %d observed pass sizes", images, len(h))
	layer(rep, "qnn.runbatch.us_per_image", "us", usPer(rbTime), moves, note)
	layer(rep, "qnn.runbatch.self_us_per_image", "us", usPer(selfT), moves, "RunBatch minus MultiDotter time: lowering, epilogues, orchestration")
	layer(rep, "bitserial.multi.us_per_image", "us", usPer(dotTime), moves, "BatchedStripes time inside RunBatch")
	layer(rep, "bitserial.multi.mmac_per_s", "Mmac/s", float64(macs)/dotTime.Seconds()/1e6, moves,
		fmt.Sprintf("MACs computed from operand shapes (%d), not counted by the engine", macs))

	// Fused stages, each a sub-model cut at a stage boundary and run on
	// the previous stage's outputs, batch of 64.
	const stageBatch = 64
	x := ins[:stageBatch]
	for _, st := range fusedStages(net.Model) {
		sub := &qnn.Model{Label: "stage-" + st.name, ActivationBits: net.Model.ActivationBits, Layers: st.layers}
		var ds []float64
		var outs []*tensor.Tensor
		for r := 0; r < 6; r++ {
			id := e.tr.open("qnn.stage." + st.name)
			outs, err = sub.RunBatch(ctx, x, bs, qnn.RunOptions{Workers: 1})
			e.tr.close(id)
			if err != nil {
				return fmt.Errorf("stage %s: %w", st.name, err)
			}
			sp := e.tr.get(id)
			if r > 0 {
				ds = append(ds, float64(sp.End-sp.Start)/float64(time.Microsecond)/stageBatch)
			}
		}
		layer(rep, "qnn.stage."+st.name+".us_per_image", "us", median(ds), moves,
			fmt.Sprintf("fused stage %v, batch %d, Workers 1, median of %d", st.labels(), stageBatch, len(ds)))
		x = outs
	}

	// The sequential path the Monte-Carlo baseline and trials take.
	fast, err := bitserial.NewFastEngine(net.Bits, net.Terms)
	if err != nil {
		return err
	}
	var rc []float64
	for r := 0; r < 21; r++ {
		id := e.tr.open("qnn.runcontext")
		_, err := net.Model.RunContext(ctx, net.Input, fastDotter{e: fast}, qnn.RunOptions{Workers: 1})
		e.tr.close(id)
		if err != nil {
			return err
		}
		sp := e.tr.get(id)
		rc = append(rc, ms(sp.End-sp.Start))
	}
	layer(rep, "qnn.runcontext.ms", "ms", median(rc), "mc_trials_per_s on mc-robustness", "one unperturbed RunContext on FastEngine, Workers 1, median of 21")

	// im2col lowering on the two conv geometries, per image.
	convs := convLayers(net.Model)
	if len(convs) != 2 {
		return fmt.Errorf("lenet has %d conv layers, want 2", len(convs))
	}
	stage1, err := (&qnn.Model{ActivationBits: net.Model.ActivationBits, Layers: fusedStages(net.Model)[0].layers}).
		RunBatch(ctx, ins[:stageBatch], bs, qnn.RunOptions{Workers: 1})
	if err != nil {
		return err
	}
	var pm tensor.PatchMatrix
	var lw []float64
	for r := 0; r < 6; r++ {
		id := e.tr.open("tensor.lower")
		for b := 0; b < stageBatch; b++ {
			if err := tensor.LowerInto(&pm, ins[b], convs[0].Kernel.R, convs[0].Stride, convs[0].Pad); err != nil {
				return err
			}
			if err := tensor.LowerInto(&pm, stage1[b], convs[1].Kernel.R, convs[1].Stride, convs[1].Pad); err != nil {
				return err
			}
		}
		e.tr.close(id)
		sp := e.tr.get(id)
		if r > 0 {
			lw = append(lw, float64(sp.End-sp.Start)/float64(time.Microsecond)/stageBatch)
		}
	}
	layer(rep, "tensor.lower.us_per_image", "us", median(lw), moves, "LowerInto on the conv1 and conv2 geometries, median of 5 batches of 64")
	return nil
}

// stage is one fused stage of the batched plan: a Conv with its
// trailing Requant and MaxPool, an FC with its trailing Requant, or a
// lone layer.
type stage struct {
	name   string
	layers []qnn.Layer
}

func (s stage) labels() []string {
	out := make([]string, len(s.layers))
	for i, l := range s.layers {
		out[i] = l.Name()
	}
	return out
}

// fusedStages cuts a model where RunBatch's fused plan does.
func fusedStages(m *qnn.Model) []stage {
	var out []stage
	ls := m.Layers
	for i := 0; i < len(ls); {
		j := i + 1
		switch ls[i].(type) {
		case *qnn.Conv:
			if j < len(ls) {
				if _, ok := ls[j].(*qnn.Requant); ok {
					j++
				}
			}
			if j < len(ls) {
				if _, ok := ls[j].(*qnn.MaxPool); ok {
					j++
				}
			}
		case *qnn.FullyConnected:
			if j < len(ls) {
				if _, ok := ls[j].(*qnn.Requant); ok {
					j++
				}
			}
		}
		out = append(out, stage{name: ls[i].Name(), layers: ls[i:j]})
		i = j
	}
	return out
}

func convLayers(m *qnn.Model) []*qnn.Conv {
	var out []*qnn.Conv
	for _, l := range m.Layers {
		if c, ok := l.(*qnn.Conv); ok {
			out = append(out, c)
		}
	}
	return out
}

// mcLayers reads the Monte-Carlo and protection counters from the
// phase's reports, and replicates trials from public pieces to time
// sampling, the perturbed engine and the compare.
func (e *env) mcLayers(rep *report) error {
	const moves = "mc_trials_per_s on mc-robustness"
	var clean, trials int
	for _, r := range e.mc.reports[0] {
		for _, p := range r.Points {
			clean += p.CleanTrials
			trials += r.Trials
		}
	}
	layer(rep, "montecarlo.clean_trial_ratio", "ratio", float64(clean)/float64(trials), moves,
		fmt.Sprintf("CleanTrials %d over %d trial slots of the unprotected runs", clean, trials))
	var calls, retries, slots int64
	var factors []float64
	for _, r := range e.mc.reports[1] {
		for _, p := range r.Protection.Points {
			calls += p.Calls
			retries += p.Retries
			slots += int64(r.Trials)
		}
		factors = append(factors, r.Protection.MaxRetryFactor)
	}
	pmoves := "mc_protected_trials_per_s on mc-robustness"
	layer(rep, "protect.calls_per_trial", "calls", float64(calls)/float64(slots), pmoves, fmt.Sprintf("ProtectedPoint.Calls %d over %d slots", calls, slots))
	layer(rep, "protect.retries_per_call", "ratio", float64(retries)/math.Max(1, float64(calls)), pmoves, fmt.Sprintf("Retries %d over Calls %d", retries, calls))
	layer(rep, "protect.retry_factor", "ratio", median(factors), pmoves, "median over parity runs of the report's MaxRetryFactor")

	// Replicated trials at the largest σ. Every trial there is
	// perturbed at the saturated bit-error rate, so any seeds give the
	// work of a measured trial.
	net, err := montecarlo.BuildNetwork("lenet")
	if err != nil {
		return err
	}
	fast, err := bitserial.NewFastEngine(net.Bits, net.Terms)
	if err != nil {
		return err
	}
	ctx := context.Background()
	base, err := net.Model.RunContext(ctx, net.Input, fastDotter{e: fast}, qnn.RunOptions{Workers: 1})
	if err != nil {
		return err
	}
	model := montecarlo.DefaultVariationModel().Scale(mcSigmas[len(mcSigmas)-1])
	root := e.in.mcSpecs[0].Seed
	const n = 16
	var sample, engine, whole []float64
	var dots, flips, perturbed, differ int64
	for t := 0; t < n; t++ {
		id := e.tr.open("montecarlo.trial")
		s0 := e.tr.now()
		pert := model.Sample(rand.New(rand.NewSource(mixSeed(root, int64(3*t)))))
		rates, err := model.Rates(pert, arch.OO)
		if err != nil {
			return err
		}
		s1 := e.tr.now()
		e.tr.add(span{Name: "montecarlo.sample", Start: s0, End: s1, Parent: id})
		sample = append(sample, float64(s1-s0)/float64(time.Microsecond))
		if !rates.Zero() {
			perturbed++
			eng, err := bitserial.NewPerturbedEngine(net.Bits, net.Terms, rates,
				rand.New(rand.NewSource(mixSeed(root, int64(3*t+1)))), rand.New(rand.NewSource(mixSeed(root, int64(3*t+2)))))
			if err != nil {
				return err
			}
			var calls atomic.Int64
			out, err := net.Model.RunContext(ctx, net.Input, fastDotter{e: eng, calls: &calls}, qnn.RunOptions{Workers: 1})
			if err != nil {
				return err
			}
			s2 := e.tr.now()
			e.tr.add(span{Name: "bitserial.perturbed", Start: s1, End: s2, Parent: id})
			for i, v := range out.Data {
				if v != base.Data[i] {
					differ++
					break
				}
			}
			e.tr.add(span{Name: "montecarlo.compare", Start: s2, End: e.tr.now(), Parent: id})
			engine = append(engine, ms(s2-s1))
			dots += calls.Load()
			flips += eng.InjectedFlips()
		}
		e.tr.close(id)
		sp := e.tr.get(id)
		whole = append(whole, ms(sp.End-sp.Start))
	}
	if perturbed == 0 {
		return fmt.Errorf("no replicated trial at sigma %v was perturbed", mcSigmas[len(mcSigmas)-1])
	}
	note := fmt.Sprintf("%d replicated trials at sigma %v, %d perturbed, %d with outputs differing from the baseline",
		n, mcSigmas[len(mcSigmas)-1], perturbed, differ)
	layer(rep, "montecarlo.sample_us_per_trial", "us", median(sample), moves, "VariationModel Scale/Sample/Rates; "+note)
	layer(rep, "montecarlo.trial_ms_p50", "ms", median(whole), moves, note)
	layer(rep, "bitserial.perturbed.ms_per_trial", "ms", median(engine), moves, "RunContext on PerturbedEngine")
	layer(rep, "bitserial.perturbed.dot_calls_per_trial", "calls", float64(dots)/float64(perturbed), moves, "")
	layer(rep, "bitserial.perturbed.flips_per_trial", "flips", float64(flips)/float64(perturbed), moves, "InjectedFlips")
	return nil
}

// sweepLayers attributes engine time to the requests that caused it,
// and reads the LRU and coordinator counters.
func (e *env) sweepLayers(rep *report) error {
	se := &e.sweep
	moves := "sweep_points_per_s on sweep-fleet"
	lookups := se.cacheHits + se.costCalls
	layer(rep, "sweep.cache_hit_ratio", "ratio", float64(se.cacheHits)/math.Max(1, float64(lookups)), moves,
		fmt.Sprintf("CacheHits %d over CacheHits+CostCalls %d, both worker engines", se.cacheHits, lookups))
	layer(rep, "sweep.cost_calls", "count", float64(se.costCalls), moves, "worker engines")

	single := e.tr.byName("sweep.engine.standalone")
	var engT time.Duration
	pts := 0
	for _, s := range single {
		engT += s.End - s.Start
		pts += s.N
	}
	layer(rep, "sweep.engine_ms_per_point", "ms", ms(engT)/math.Max(1, float64(pts)), "single_sweep_p50_ms on sweep-fleet",
		fmt.Sprintf("standalone Evaluator time over %d calls, %d points", len(single), pts))

	workers := append(e.tr.byName("sweep.engine.worker-a"), e.tr.byName("sweep.engine.worker-b")...)
	sort.Slice(workers, func(i, j int) bool { return workers[i].Start < workers[j].Start })
	var fleetSelf, singleSelf []float64
	for _, r := range se.records {
		if !r.ok {
			continue
		}
		net := r.grid.req.Networks[0]
		singleSelf = append(singleSelf, ms(selfTime(r.single, e.children(single, r.single, net, r.grid, r.singleSpan))))
		fleetSelf = append(fleetSelf, ms(selfTime(r.fleet, e.children(workers, r.fleet, net, r.grid, r.fleetSpan))))
	}
	layer(rep, "server.sweep.self_ms_p50", "ms", median(singleSelf), "single_sweep_p50_ms on sweep-fleet", "standalone latency minus Evaluator.SweepNetworks time")
	layer(rep, "fleet.self_ms_p50", "ms", median(fleetSelf), "fleet_sweep_p50_ms on sweep-fleet", "coordinator latency minus the worker Evaluator time it covers")
	d := fleetCounters{se.after.retries - se.before.retries, se.after.hedges - se.before.hedges, se.after.sweepShards - se.before.sweepShards}
	layer(rep, "fleet.shards_per_request", "shards", float64(d.sweepShards)/float64(len(se.records)), "fleet_sweep_p50_ms on sweep-fleet",
		fmt.Sprintf("%d /v1/sweep shards over %d coordinator requests", d.sweepShards, len(se.records)))
	layer(rep, "fleet.shard_retries", "count", float64(d.retries), "fleet_sweep_p99_ms on sweep-fleet", "delta of pixelfleet_shard_retries_total")
	layer(rep, "fleet.hedges_fired", "count", float64(d.hedges), "fleet_sweep_p99_ms on sweep-fleet", "delta of pixelfleet_hedges_fired_total")

	// arch.CostNetwork on the first distinct drawn configurations.
	var us []float64
	seen := map[string]bool{}
	for _, g := range e.in.seq {
		if len(us) >= 512 {
			break
		}
		c, err := cnn.ByName(g.req.Networks[0])
		if err != nil {
			return err
		}
		for d, name := range sweepDesigns {
			for _, l := range g.req.Lanes {
				for _, b := range g.req.Bits {
					key := fmt.Sprint(c.Name, name, l, b)
					if seen[key] {
						continue
					}
					seen[key] = true
					cfg, err := arch.NewConfig(archDesign(pixel.Design(d)), l, b)
					if err != nil {
						return err
					}
					t0 := time.Now()
					if _, err := arch.CostNetwork(c, cfg); err != nil {
						return err
					}
					us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
				}
			}
		}
	}
	layer(rep, "arch.cost_network_us", "us", median(us), moves, fmt.Sprintf("median of %d direct calls on drawn configurations", len(us)))
	return nil
}

// children returns the intervals of the engine spans that served one
// request: inside its window, same network, points within its grid.
// It links them to the request's span.
func (e *env) children(spans []span, win interval, net string, g *sweepGrid, parent int) []interval {
	lo := sort.Search(len(spans), func(i int) bool { return spans[i].Start >= win.start })
	codes := g.codes()
	var out []interval
	for _, s := range spans[lo:] {
		if s.Start > win.end {
			break
		}
		if s.End > win.end || s.Tag != net || s.Parent != 0 || !subset(s.Key, codes) {
			continue
		}
		e.tr.link(s.ID, parent, e.tr.get(parent).Req)
		out = append(out, s.iv())
	}
	return out
}

func subset(keys []uint64, set map[uint64]bool) bool {
	for _, k := range keys {
		if !set[k] {
			return false
		}
	}
	return true
}

func archDesign(d pixel.Design) arch.Design {
	switch d {
	case pixel.EE:
		return arch.EE
	case pixel.OE:
		return arch.OE
	}
	return arch.OO
}

// lenetCost is the LeNet the server runs, as the arch cost model's
// layer list: its Conv and FullyConnected layers, with the input shape
// each sees when the model runs on its stimulus. The other layers have
// no MACs and no modelled cost.
func lenetCost() (cnn.Network, error) {
	net, err := montecarlo.BuildNetwork("lenet")
	if err != nil {
		return cnn.Network{}, err
	}
	fast, err := bitserial.NewFastEngine(net.Bits, net.Terms)
	if err != nil {
		return cnn.Network{}, err
	}
	out := cnn.Network{Name: net.Model.Label}
	x := net.Input
	for _, l := range net.Model.Layers {
		switch l := l.(type) {
		case *qnn.Conv:
			out.Layers = append(out.Layers, cnn.Layer{Name: l.Label, Type: cnn.Conv,
				H: x.H, W: x.W, C: x.C, Pad: l.Pad, R: l.Kernel.R, U: l.Stride, M: l.Kernel.M})
		case *qnn.FullyConnected:
			out.Layers = append(out.Layers, cnn.Layer{Name: l.Label, Type: cnn.FC, In: len(x.Data), Out: l.Out})
		}
		if x, err = l.Apply(x, fastDotter{e: fast}); err != nil {
			return cnn.Network{}, err
		}
	}
	return out, nil
}

// archLanes and archBits, on the OO design, are the stated design
// point of the modelled LeNet cost.
const archLanes, archBits = 8, arch.NativePrecision

func archCost() (arch.NetworkCost, error) {
	cfg, err := arch.NewConfig(arch.OO, archLanes, archBits)
	if err != nil {
		return arch.NetworkCost{}, err
	}
	net, err := lenetCost()
	if err != nil {
		return arch.NetworkCost{}, err
	}
	return arch.CostNetwork(net, cfg)
}

// archModel prints the modelled photonic cost of each LeNet layer: this
// is simulated time, and must not move on a speed-only change.
func archModel(rep *report) error {
	cost, err := archCost()
	if err != nil {
		return err
	}
	for _, l := range cost.Layers {
		note := fmt.Sprintf("modelled at OO, %d lanes, %d bits/lane; beside qnn.stage.%s", archLanes, archBits, l.Layer)
		layer(rep, "arch.model.lenet."+l.Layer+".energy_pj", "pJ-modelled", l.Energy.Total()*1e12, "none: simulated, fixed for a speed-only change", note)
		layer(rep, "arch.model.lenet."+l.Layer+".latency_ns", "ns-modelled", l.Latency*1e9, "none: simulated, fixed for a speed-only change", note)
	}
	return nil
}

// archDigest folds the modelled LeNet layer costs.
func archDigest() *digest {
	d := &digest{}
	cost, err := archCost()
	if err != nil {
		d.fold(math.NaN())
		return d
	}
	for _, l := range cost.Layers {
		d.fold(l.Energy.Total(), l.Latency)
	}
	return d
}
