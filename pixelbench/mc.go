package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"pixel"
)

// The mc-robustness workload: one caller running back-to-back
// pixel.RobustnessContext calls, LeNet on OO, alternating between no
// protection and parity.
// mcTrials is the trial count per sigma. With 2 workers each run is
// two waves of trials; many short runs give the median rate more
// samples, spread over the run, than a few long ones.
const mcTrials = 2

// mcPairs is a slice's base size, in runs of each kind.
const mcPairs = 2

// mcSigmas runs from 0, where every trial is clean and skips inference,
// to scales where every trial is perturbed at the saturated bit-error
// rate (about 0.5). Saturation keeps the work of a trial nearly the
// same for every seed, so trials/s does not depend on which trials the
// seed happened to draw.
var mcSigmas = []float64{0, 128, 256}

// mcEnv holds what the phase observed across its slices.
type mcEnv struct {
	reports [2][]pixel.RobustnessReport // unprotected, parity
	rates   [2][]float64                // trial slots per second, per run
	runs    int
	fails   int
	elapsed time.Duration
}

var mcKinds = [2]string{"unprotected", "parity"}

// buildMCInputs fixes the two run specs from the seed and computes
// their reference reports; every measured run must reproduce them
// exactly.
func (in *inputs) buildMCInputs(seed int64, nproc int) error {
	for k := range in.mcSpecs {
		spec := pixel.RobustnessSpec{
			Network: "lenet",
			Design:  pixel.OO,
			Sigmas:  mcSigmas,
			Trials:  mcTrials,
			Seed:    mixSeed(seed, 3),
			Workers: nproc,
		}
		if k == 1 {
			spec.Protection = &pixel.ProtectionSpec{Scheme: "parity", Retries: 1}
		}
		ref, err := pixel.RobustnessContext(context.Background(), spec)
		if err != nil {
			return fmt.Errorf("mc reference %s: %w", mcKinds[k], err)
		}
		in.mcSpecs[k], in.mcRefs[k] = spec, ref
		in.mcDigest.foldReport(ref)
	}
	return nil
}

// foldReport folds a Monte-Carlo report's statistics.
func (d *digest) foldReport(r pixel.RobustnessReport) {
	for _, p := range r.Points {
		d.fold(p.Sigma, p.Yield, p.ArgmaxRate, p.MeanMismatch, p.MeanInjectedBER, float64(p.CleanTrials))
	}
	if r.Protection != nil {
		pr := r.Protection
		d.fold(pr.MaxRetryFactor, pr.EnergyOverhead, pr.LatencyOverhead, pr.AreaOverhead)
		for _, p := range pr.Points {
			d.fold(p.Yield, float64(p.Calls), float64(p.Retries))
		}
	}
}

// setupMC runs one small robustness sweep so the first measured run
// pays no first-call cost.
func (e *env) setupMC() error {
	spec := e.in.mcSpecs[0]
	spec.Trials, spec.Sigmas = 1, []float64{0, mcSigmas[len(mcSigmas)-1]}
	_, err := pixel.RobustnessContext(context.Background(), spec)
	return err
}

// mcRun runs one robustness sweep of kind k and checks it.
func (e *env) mcRun(k int, rep *report) (time.Duration, bool) {
	// The heap holds the other phases' state (the sweep LRUs above
	// all), which a collection during a run of a fraction of a second
	// would charge to that run alone. Collect it off the clock.
	runtime.GC()
	t0 := e.clock()
	got, err := pixel.RobustnessContext(context.Background(), e.in.mcSpecs[k])
	t1 := e.clock()
	if e.tr != nil {
		e.tr.add(span{Name: "mc.run." + mcKinds[k], Start: t0, End: t1, N: len(mcSigmas) * mcTrials})
	}
	if err != nil {
		rep.printf("mc %s run failed: %v", mcKinds[k], err)
		return t1 - t0, false
	}
	ok := true
	if !reflect.DeepEqual(got, e.in.mcRefs[k]) {
		rep.wrongf("mc %s report differs from the reference run of the same seed", mcKinds[k])
		ok = false
	}
	if got.Points[0].Sigma == 0 && got.Points[0].Yield != 1 {
		rep.wrongf("mc %s: yield %v at sigma 0, want 1", mcKinds[k], got.Points[0].Yield)
		ok = false
	}
	if got.Protection != nil && got.Protection.Points[0].Sigma == 0 && got.Protection.Points[0].Yield != 1 {
		rep.wrongf("mc %s: protected yield %v at sigma 0, want 1", mcKinds[k], got.Protection.Points[0].Yield)
		ok = false
	}
	e.mc.reports[k] = append(e.mc.reports[k], got)
	return t1 - t0, ok
}

// mcSlice runs pairs of runs, one of each kind: mcPairs pairs, and
// more until budget.
func (e *env) mcSlice(budget time.Duration, rep *report) (int, error) {
	m := &e.mc
	start := time.Now()
	slots := float64(len(mcSigmas) * mcTrials)
	runs, fails := 0, 0
	for pairs := 0; pairs < mcPairs || time.Since(start) < budget; pairs++ {
		for k := range mcKinds {
			d, ok := e.mcRun(k, rep)
			runs++
			if !ok {
				fails++
				continue
			}
			m.rates[k] = append(m.rates[k], slots/d.Seconds())
		}
	}
	rep.count(runs, fails)
	m.runs += runs
	m.fails += fails
	m.elapsed += time.Since(start)
	return runs, nil
}

// mcFinish reports the phase: rates are medians over runs of trial
// slots per second.
func (e *env) mcFinish(rep *report) error {
	m := &e.mc
	if len(m.rates[0]) == 0 || len(m.rates[1]) == 0 {
		return fmt.Errorf("no successful mc run of each kind")
	}
	rep.set("mc_trials_per_s", "trials/s", median(m.rates[0]))
	rep.set("mc_protected_trials_per_s", "trials/s", median(m.rates[1]))
	rep.printf("mc: %d runs in %.2fs (LeNet OO, %d sigmas x %d trials, %d workers); sent %d ok %d failed %d; unprotected %.1f trials/s (median of %d), parity %.1f paired trials/s (median of %d)",
		m.runs, m.elapsed.Seconds(), len(mcSigmas), mcTrials, e.nproc, m.runs, m.runs-m.fails, m.fails,
		median(m.rates[0]), len(m.rates[0]), median(m.rates[1]), len(m.rates[1]))
	rep.printf("mc: unprotected trials/s by run %s; parity %s", fmtFloats(m.rates[0]), fmtFloats(m.rates[1]))
	return nil
}

// mcCalibrate times n unprotected runs.
func (e *env) mcCalibrate(n int) ([]float64, error) {
	var lat []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := pixel.RobustnessContext(context.Background(), e.in.mcSpecs[0]); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}
