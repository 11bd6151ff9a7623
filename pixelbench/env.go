package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pixel"
	"pixel/internal/server"
)

// env is everything a run measures against, built before timing
// starts: the servers on loopback listeners, the coordinator, the
// generated inputs with their precomputed expected outputs, and the
// Monte-Carlo reference reports.
type env struct {
	in    *inputs
	tr    *tracer // nil: untraced
	epoch time.Time
	nproc int
	stops []func()

	client *http.Client

	infer inferEnv
	sweep sweepEnv
	mc    mcEnv
}

// inputs are the generated workload inputs and the outputs the oracles
// expect for them: a pure function of the seed, computed once per
// process and shared by every set-up round, so set-up time is the
// system's alone.
type inputs struct {
	seed int64

	kinds       []inferKind
	lenet       *imagePool
	inferDigest digest

	seq   []*sweepGrid // the workload's request sequence
	calib []*sweepGrid // fresh grids for the tracing-overhead calibration

	mcSpecs  [2]pixel.RobustnessSpec // unprotected, parity
	mcRefs   [2]pixel.RobustnessReport
	mcDigest digest

	// Digests of results computed from refSeed, compared with
	// pinnedDigests; the sweep one is folded from served responses
	// during the run.
	refInfer, refMC digest
}

func newInputs(seed int64, nproc int) (*inputs, error) {
	ref := sweepSequenceFrom(rand.New(rand.NewSource(mixSeed(refSeed, 2))), sweepDigestGrids, 0, nil)
	in := &inputs{
		seed:  seed,
		seq:   sweepSequenceFrom(rand.New(rand.NewSource(mixSeed(seed, 2))), sweepSequence-len(ref), sweepRepeatShare, ref),
		calib: sweepSequenceFrom(rand.New(rand.NewSource(mixSeed(seed, 7))), 256, 0, nil),
	}
	if err := in.buildInferInputs(seed); err != nil {
		return nil, err
	}
	if err := in.buildMCInputs(seed, nproc); err != nil {
		return nil, err
	}
	if err := in.buildReference(nproc); err != nil {
		return nil, err
	}
	return in, nil
}

// quietLogger drops request logs (one line per request would make the
// benchmark measure its own stderr) but keeps warnings.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// newEnv builds the environment and runs every lazily initialised path
// once, so first-call costs land in set-up, not in the timed phases.
func newEnv(in *inputs, tr *tracer) (*env, error) {
	e := &env{in: in, tr: tr, nproc: runtime.NumCPU(), epoch: time.Now()}
	if tr != nil {
		e.epoch = tr.epoch
	}
	e.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     e.nproc,
			MaxIdleConnsPerHost: e.nproc,
			DisableCompression:  true,
		},
	}
	e.stops = append(e.stops, e.client.CloseIdleConnections)
	steps := []func() error{e.setupInfer, e.setupSweep, e.setupMC}
	for _, step := range steps {
		if err := step(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// close stops everything newEnv started, newest first, and waits for
// each server to finish.
func (e *env) close() {
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	e.stops = nil
}

// clock is the benchmark clock, shared with the tracer.
func (e *env) clock() time.Duration { return time.Since(e.epoch) }

// newServer builds a server.New over a fresh engine wrapped for timing.
func (e *env) newServer(name string, eng *pixel.Engine, infer server.InferEvaluator) *server.Server {
	return server.New(server.Config{
		Engine: timedEvaluator{Engine: eng, tr: e.tr, name: name},
		Infer:  infer,
		Logger: quietLogger(),
	})
}

// serve runs serveFn on a loopback listener until close, returning the
// base URL.
func (e *env) serve(serveFn func(ctx context.Context, ln net.Listener, drain time.Duration) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveFn(ctx, ln, 5*time.Second) }()
	e.stops = append(e.stops, func() {
		cancel()
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, "pixelbench: server on", ln.Addr(), "stopped with:", err)
		}
	})
	return "http://" + ln.Addr().String(), nil
}

// phaseSettle is the idle pause before every slice, after the forced
// collection, so background work the previous slice started has ended
// before the next is timed.
const phaseSettle = 150 * time.Millisecond

// rounds is how many times a run cycles through the three phases. Each
// phase runs one slice of its work per round, so every metric samples
// the whole run instead of one stretch of it: on a shared host whose
// speed drifts over seconds, metrics measured in one block moved by a
// fifth between runs of the same code.
const rounds = 4

// phaseOrder is the order of the slices within a round.
var phaseOrder = []string{phaseMC, phaseSweep, phaseInfer}

// runRounds runs every phase's slices, the home phase's each for at
// least budget/rounds, and then reports each phase's metrics. The home
// phase yields the memory metrics.
func (e *env) runRounds(home string, budget time.Duration, rep *report) error {
	var peak, alloc uint64
	ops := 0
	for r := 0; r < rounds; r++ {
		for _, ph := range phaseOrder {
			// Garbage and freed memory the previous slice left must not
			// be collected or returned to the OS on this slice's time.
			debug.FreeOSMemory()
			time.Sleep(phaseSettle)
			if ph != home {
				if _, err := e.slice(ph, 0, rep); err != nil {
					return err
				}
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sampler := startHeapSampler(25 * time.Millisecond)
			n, err := e.slice(ph, budget/rounds, rep)
			p := sampler.stop()
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			peak = max(peak, p, after.HeapInuse)
			alloc += after.TotalAlloc - before.TotalAlloc
			ops += n
		}
	}
	for _, finish := range []func(*report) error{e.mcFinish, e.sweepFinish, e.inferFinish} {
		if err := finish(rep); err != nil {
			return err
		}
	}
	if ops == 0 {
		return errors.New("the measured phase completed no operation")
	}
	kb := float64(alloc) / 1024 / float64(ops)
	rep.set("alloc_kb_per_op", "KiB", kb)
	rep.set("peak_heap_mb", "MiB", float64(peak)/(1<<20))
	rep.printf("memory over %d %s ops: %.2f KiB allocated per op (client and servers, one process), peak HeapInuse %.2f MiB",
		ops, home, kb, float64(peak)/(1<<20))
	return nil
}

// slice runs one slice of a phase: its base size, and more until
// budget.
func (e *env) slice(ph string, budget time.Duration, rep *report) (int, error) {
	switch ph {
	case phaseInfer:
		return e.inferSlice(budget, rep)
	case phaseMC:
		return e.mcSlice(budget, rep)
	}
	return e.sweepSlice(budget, rep)
}

// heapSampler polls HeapInuse and keeps the highest value seen.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak uint64
		var ms runtime.MemStats
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peak {
				peak = ms.HeapInuse
			}
			select {
			case <-s.stopc:
				s.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() uint64 {
	close(s.stopc)
	return <-s.done
}

// calibrate times a fixed set of closed-loop operations of the phase
// and returns the median milliseconds per operation; run on an
// untraced and a traced environment, the difference is the tracing
// overhead.
func (e *env) calibrate(ph string) (float64, error) {
	var lat []float64
	var err error
	switch ph {
	case phaseInfer:
		lat, err = e.inferCalibrate(300)
	case phaseMC:
		lat, err = e.mcCalibrate(4)
	case phaseSweep:
		lat, err = e.sweepCalibrate(150)
	}
	if err != nil {
		return 0, fmt.Errorf("calibrate %s: %w", ph, err)
	}
	return median(lat), nil
}

// digest folds simulated statistics into one hash: it depends on the
// seed and the program's modelled results, never on how fast they
// were computed.
type digest struct {
	h uint64
	n int
}

func (d *digest) fold(vals ...float64) {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(d.h)
	for _, v := range vals {
		put(math.Float64bits(v))
	}
	d.h = h.Sum64()
	d.n += len(vals)
}
