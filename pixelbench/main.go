// Command pixelbench is the repository's benchmark: it drives the
// serving stack (internal/server on loopback listeners, the pixel/fleet
// coordinator over two worker servers) and the pixel facade in one
// process, checks every output, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every layer call it makes and prints the
// per-layer metrics instead. See README.md for the workloads and the
// metric-to-layer map. Run it through run.sh, which builds it first:
//
//	bash pixelbench/run.sh --workload infer-open --seed 1 --seconds 6 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"pixel/internal/bitserial"
)

// workloads maps each workload name to its own (home) phase, which runs
// for the measured seconds; the other two phases run at their base size
// so that every end-to-end metric is reported on every workload.
var workloads = map[string]string{
	"infer-open":    phaseInfer,
	"mc-robustness": phaseMC,
	"sweep-fleet":   phaseSweep,
}

const (
	phaseInfer = "infer"
	phaseMC    = "mc"
	phaseSweep = "sweep"
)

// setupRounds is how many times the whole environment is built; the
// median build time is setup_s.
const setupRounds = 9

// traceDir receives the spans of a traced run, relative to the checkout
// root the benchmark runs from.
const traceDir = ".bench_build/traces"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict, the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics, operation counts and failures across the
// phases of one run, and the human-readable lines printed before the
// verdict. Client goroutines report failures concurrently.
type report struct {
	mu        sync.Mutex
	metrics   map[string]metric
	attempted int
	failed    int
	wrong     []string // correctness failures, first few kept
	nWrong    int
	out       *bufio.Writer
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// count adds n operations of which failed failed.
func (r *report) count(n, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += failed
}

// wrongf records an output that failed its correctness check.
func (r *report) wrongf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nWrong++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.out, format+"\n", args...)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: infer-open, mc-robustness or sweep-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 6, "how long the workload's own phase runs, at least its base size")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "pixelbench: unknown workload %q (have infer-open, mc-robustness, sweep-fleet)\n", o.workload)
		os.Exit(2)
	}
	if o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pixelbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(o, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "pixelbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pixelbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// run builds the environment setupRounds times, runs the rounds of the
// three phases (the workload's own for o.seconds in all, the others at
// base size) and assembles the verdict.
func run(o options, out *bufio.Writer) (result, error) {
	rep := &report{metrics: map[string]metric{}, out: out}
	printHost(rep, o)

	t0 := time.Now()
	in, err := newInputs(o.seed, runtime.NumCPU())
	if err != nil {
		return result{}, fmt.Errorf("inputs: %w", err)
	}
	rep.printf("inputs and their oracles: %.2fs (not part of setup_s)", time.Since(t0).Seconds())
	epoch := time.Now()
	var tr *tracer
	if o.trace {
		tr = newTracer(epoch)
	}
	var env *env
	var setups []float64
	var untracedCal float64
	for i := 0; i < setupRounds; i++ {
		last := i == setupRounds-1
		runtime.GC() // every round starts from the same collected heap
		t0 := time.Now()
		var etr *tracer
		if last {
			etr = tr
		}
		e, err := newEnv(in, etr)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if last {
			env = e
			break
		}
		if o.trace && i == setupRounds-2 {
			// The same calibration ops on an untraced and a traced
			// environment give the tracing overhead.
			untracedCal, err = e.calibrate(workloads[o.workload])
			if err != nil {
				e.close()
				return result{}, err
			}
		}
		e.close()
	}
	defer env.close()
	rep.set("setup_s", "s", median(setups))
	rep.printf("setup: %d builds, median %.4fs (all: %v)", len(setups), median(setups), fmtFloats(setups))

	home := workloads[o.workload]
	if err := env.runRounds(home, time.Duration(o.seconds)*time.Second, rep); err != nil {
		return result{}, err
	}
	env.checkDigests(rep)

	if o.trace {
		tracedCal, err := env.calibrate(home)
		if err != nil {
			return result{}, err
		}
		if err := env.layerMetrics(rep); err != nil {
			return result{}, err
		}
		rep.set("trace.overhead_ms_per_op", "ms", tracedCal-untracedCal)
		rep.printf("tracing overhead on %s: traced %.4f ms/op - untraced %.4f ms/op = %.4f ms/op",
			home, tracedCal, untracedCal, tracedCal-untracedCal)
		printSelfTable(rep, tr)
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err != nil {
			return result{}, err
		}
		rep.printf("spans written to %s", path)
	}

	want := endToEndNames
	if o.trace {
		want = perLayerNames
	}
	metrics := map[string]metric{}
	for _, name := range want {
		m, ok := rep.metrics[name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		metrics[name] = m
	}
	for _, w := range rep.wrong {
		rep.printf("WRONG: %s", w)
	}
	rep.printf("operations: attempted %d, failed %d, wrong outputs %d", rep.attempted, rep.failed, rep.nWrong)
	return result{
		Correct:   rep.nWrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}, nil
}

// printHost records the host the numbers were measured on.
func printHost(rep *report, o options) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"avx2":       bitserial.VectorSweep(),
		"go":         runtime.Version(),
		"commit":     commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	b, _ := json.Marshal(host) // a map of plain values always encodes
	rep.printf("host %s", b)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printSelfTable(rep *report, tr *tracer) {
	rep.printf("per-layer self time (span minus the part its children cover):")
	rep.printf("  %-34s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, lt := range tr.selfTable() {
		rep.printf("  %-34s %8d %12.3f %12.3f", lt.Name, lt.Count, ms(lt.Total), ms(lt.Self))
	}
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
