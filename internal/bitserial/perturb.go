package bitserial

import (
	"fmt"
	"math"
	"math/rand"
)

// FlipRates is the per-bit error injection a PerturbedEngine applies:
// the probability that any given bit of a multiply's product word flips
// (Mul), and the probability that any given bit of the running
// accumulator flips after a merge add (Acc). The rates encode *where*
// each PIXEL design is exposed to device variation: the electrical EE
// design is immune (both zero), the hybrid OE design multiplies
// optically but accumulates electrically (Mul only), and the
// all-optical OO design is exposed on both (Mul and Acc). The mapping
// from physical perturbations to these rates lives in
// internal/montecarlo.
type FlipRates struct {
	// Mul is the per-bit flip probability applied to each multiply's
	// product word (the low 2*Bits() bits).
	Mul float64
	// Acc is the per-bit flip probability applied to the full
	// accumulator word after each merge add.
	Acc float64
}

// Validate reports an error for rates outside [0, 1].
func (r FlipRates) Validate() error {
	if r.Mul < 0 || r.Mul > 1 || math.IsNaN(r.Mul) {
		return fmt.Errorf("bitserial: multiply flip rate %v out of [0,1]", r.Mul)
	}
	if r.Acc < 0 || r.Acc > 1 || math.IsNaN(r.Acc) {
		return fmt.Errorf("bitserial: accumulate flip rate %v out of [0,1]", r.Acc)
	}
	return nil
}

// Zero reports whether no injection happens at these rates.
func (r FlipRates) Zero() bool { return r.Mul <= 0 && r.Acc <= 0 }

// flipStream injects bit flips into a stream of words at a fixed
// per-bit probability, using geometric gap sampling: instead of one
// uniform draw per bit (ruinous for whole-CNN trials), it draws the
// gap to the next flip, G ~ Geometric(p), and skips that many clean
// bits in O(1). One uniform is consumed per *flip*, so the draw at
// position k is the same for every rate — which makes the number of
// flips within a fixed-length stream monotone non-decreasing in p for
// a fixed seed. The Monte-Carlo engine leans on that coupling: a
// higher-σ trial sharing a trial seed injects a superset count of
// errors, so yield curves degrade monotonically rather than jitter
// with resampling noise.
type flipStream struct {
	p   float64
	rng *rand.Rand
	// logq is log(1-p), the divisor of the inverse-CDF gap formula.
	logq float64
	// countdown is the number of clean bits remaining before the next
	// scheduled flip.
	countdown uint64
	flips     int64
	bits      int64
	// words counts exposed words that took at least one flip; oddWords
	// counts those that took an odd number — the word-level errors a
	// per-word parity lane can detect (even flip counts cancel in the
	// parity bit and escape).
	words    int64
	oddWords int64
	// draws counts gaps drawn before the table is built; tab is built
	// in place once draws reaches tableAfter.
	draws int
	tab   gapTable
}

// maxGap bounds a sampled gap so float rounding at tiny p cannot
// overflow the countdown arithmetic; 1<<60 bits is ~10^9 LeNet
// inferences, far beyond any run length.
const maxGap = uint64(1) << 60

// tableAfter is how many gaps a stream draws through exactGap before
// it builds its threshold table: a sparse-flip stream that never gets
// there never pays the build, and a dense one repays it within a few
// dozen draws.
const tableAfter = 64

func newFlipStream(p float64, rng *rand.Rand) *flipStream {
	s := &flipStream{p: p, rng: rng, logq: math.Log1p(-p)}
	if p > 0 {
		s.countdown = s.gap()
	}
	return s
}

// gap draws the number of clean bits before the next flip.
func (s *flipStream) gap() uint64 {
	if s.p >= 1 {
		return 0
	}
	// 1-Float64() is in (0, 1], keeping the log finite.
	x := 1 - s.rng.Float64()
	if s.draws < tableAfter {
		s.draws++
		if s.draws == tableAfter {
			s.tab.build(s.logq)
		}
		return exactGap(x, s.logq)
	}
	if g, ok := s.tab.lookup(x); ok {
		return g
	}
	return exactGap(x, s.logq)
}

// exactGap is the inverse-CDF gap formula, floor(log(x)/log(1-p)) for
// x in (0, 1], clamped to maxGap. It defines every sampled gap: the
// threshold table only reproduces its value where that value is
// certain.
func exactGap(x, logq float64) uint64 {
	g := math.Floor(math.Log(x) / logq)
	if !(g >= 0) || g > float64(maxGap) {
		return maxGap
	}
	return uint64(g)
}

// gapTable holds the breakpoints of exactGap for one logq, so a dense
// stream looks its gaps up instead of taking a logarithm per flip.
// exactGap(x) steps from m-1 to m as x falls through the breakpoint
// exp(m·logq). The table keeps a guard band around each breakpoint
// and answers any x outside every band by counting the breakpoints
// above it; inside a band, and below the last breakpoint, lookup
// declines and the caller evaluates exactGap itself.
//
// Why that count is exactGap's value: math.Log is within one ulp and
// the division is correctly rounded, so the computed quotient is
// within 2^-51 relative of the real log(x)/logq, and its floor can
// differ from the real floor only for x within 2^-51·|log x| relative
// of a breakpoint. The table stops at tableFloor = 2^-20, so |log x| <
// 14 wherever it answers; the closed-form seed exp(m·logq) is within
// 2^-48 of the true breakpoint; and the band reaches 2^-42 either side
// of it, over thirty times farther than the floor can be wrong. build
// also evaluates exactGap at both edges of every band and ends the
// table at the first edge that disagrees.
//
// The count costs one table read and one compare: the bit patterns of
// x in (0, 1] are cut into equal segments below that of 1.0, each
// 2^-s of a binade (an approximately logarithmic scale), and seg
// holds, per segment, the number g of bands wholly above it. s is the
// finest that fits the table into the segments, so a segment normally
// meets no band but band g, and x lies above it (gap g) or below it
// (gap g+1). A segment that meets two bands is a slowSegment, answered
// by exactGap.
type gapTable struct {
	// n is the number of breakpoints held; 0 answers nothing.
	n int
	// The band around breakpoint m = i+1 is the float64s whose bit
	// patterns lie in [lo[i], lo[i]+width[i]); lo is decreasing in i.
	// Positive floats order as their bit patterns do, so band tests
	// are integer compares.
	lo, width [gapTableSize]uint64
	// shift is 52-s: segment i holds the x with
	// (bits(1) - bits(x)) >> shift == i.
	shift uint
	seg   [segments]uint8
}

const (
	// gapTableSize caps the breakpoints: at p = 0.5 the table reaches
	// tableFloor after 20, and at p = 0.1 its 64 cover all but 0.1% of
	// draws.
	gapTableSize = 64
	// tableFloor is the smallest breakpoint the table holds.
	tableFloor = 0x1p-20
	// guardBand is the relative half-width of the band around each
	// breakpoint where lookup defers to exactGap.
	guardBand = 0x1p-42
	// segments is the size of the segment index; four or more per
	// breakpoint keep slow segments rare.
	segments = 4 * gapTableSize
	// slowSegment marks a segment lookup cannot answer.
	slowSegment = 0xff
	oneBits     = 0x3ff0000000000000 // math.Float64bits(1)
)

// build fills a zero table for one logq = log(1-p), 0 < p < 1,
// seeding each breakpoint from the closed form exp(m·logq).
func (t *gapTable) build(logq float64) {
	for m := 1; m <= gapTableSize; m++ {
		b := math.Exp(float64(m) * logq)
		if b < tableFloor {
			break
		}
		lo, hi := b*(1-guardBand), b*(1+guardBand)
		if exactGap(lo, logq) != uint64(m) || exactGap(hi, logq) != uint64(m-1) {
			break
		}
		t.lo[m-1] = math.Float64bits(lo)
		t.width[m-1] = math.Float64bits(hi) - t.lo[m-1]
		t.n = m
	}
	if t.n > 0 {
		for span := oneBits - t.lo[t.n-1]; span>>t.shift >= segments; t.shift++ {
		}
	}
	// Segment i holds the bit patterns in (bottom, top].
	g := 0
	for i := range t.seg {
		top, bottom := oneBits-uint64(i)<<t.shift, oneBits-uint64(i+1)<<t.shift
		for g < t.n && t.lo[g] > top {
			g++
		}
		t.seg[i] = uint8(g)
		if g+1 < t.n && t.lo[g+1]+t.width[g+1] > bottom {
			t.seg[i] = slowSegment
		}
	}
}

// lookup returns exactGap(x, logq) for x in (0, 1], or false when x
// lies in a guard band, in a slow segment or past the last breakpoint.
func (t *gapTable) lookup(x float64) (uint64, bool) {
	xb := math.Float64bits(x)
	i := (oneBits - xb) >> (t.shift & 63)
	if i >= segments {
		return 0, false
	}
	g := int(t.seg[i])
	if g >= t.n {
		return 0, false
	}
	// One unsigned compare tests the band: below it, xb-lo wraps.
	if xb-t.lo[g] < t.width[g] {
		return 0, false
	}
	if xb < t.lo[g] {
		g++
	}
	if g >= t.n {
		return 0, false
	}
	return uint64(g), true
}

// apply advances the stream over the low `width` bits of v, flipping
// the scheduled ones. A zero-rate stream is a no-op and consumes no
// randomness, so a PerturbedEngine with zero rates is bit-identical to
// the unperturbed engine without touching its RNGs.
func (s *flipStream) apply(v uint64, width int) uint64 {
	if s.p <= 0 {
		return v
	}
	s.bits += int64(width)
	w := uint64(width)
	var flipped int64
	for s.countdown < w {
		v ^= uint64(1) << s.countdown
		flipped++
		gap := s.gap()
		if gap >= maxGap-s.countdown {
			s.countdown = maxGap
			break
		}
		s.countdown += 1 + gap
	}
	s.countdown -= w
	if flipped > 0 {
		s.flips += flipped
		s.words++
		if flipped&1 == 1 {
			s.oddWords++
		}
	}
	return v
}

// PerturbedEngine is a FastEngine that injects seeded bit errors into
// the bit-serial datapath: multiply product bits flip at rates.Mul and
// the running accumulator flips at rates.Acc after each merge, while
// Stats stay the closed-form work counts of the unperturbed design
// (variation corrupts values, not the cycle count). With both rates
// zero it is bit-identical to FastEngine — pinned by
// TestPerturbedZeroRatesDegeneracy and, end to end, by the Monte-Carlo
// σ=0 golden test.
//
// A PerturbedEngine consumes its rand streams in datapath order, so it
// is NOT safe for concurrent use; the Monte-Carlo engine runs one
// engine per trial, serially within the trial, and parallelizes across
// trials.
type PerturbedEngine struct {
	base      *FastEngine
	rates     FlipRates
	mul       *flipStream
	acc       *flipStream
	prodWidth int
}

var _ Stripes = (*PerturbedEngine)(nil)

// NewPerturbedEngine returns a fault-injecting engine with the same
// operand and accumulator geometry as NewFastEngine(bits, terms). A
// rand stream is required for each non-zero rate (mulRng for Mul,
// accRng for Acc); unused streams may be nil.
func NewPerturbedEngine(bits, terms int, rates FlipRates, mulRng, accRng *rand.Rand) (*PerturbedEngine, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	if rates.Mul > 0 && mulRng == nil {
		return nil, fmt.Errorf("bitserial: multiply flip rate %v needs a rand stream", rates.Mul)
	}
	if rates.Acc > 0 && accRng == nil {
		return nil, fmt.Errorf("bitserial: accumulate flip rate %v needs a rand stream", rates.Acc)
	}
	base, err := NewFastEngine(bits, terms)
	if err != nil {
		return nil, err
	}
	return &PerturbedEngine{
		base:      base,
		rates:     rates,
		mul:       newFlipStream(rates.Mul, mulRng),
		acc:       newFlipStream(rates.Acc, accRng),
		prodWidth: 2 * bits,
	}, nil
}

// Bits returns the operand precision.
func (e *PerturbedEngine) Bits() int { return e.base.bits }

// AccumulatorWidth returns the accumulator width in bits.
func (e *PerturbedEngine) AccumulatorWidth() int { return e.base.accWidth }

// Rates returns the engine's injection rates.
func (e *PerturbedEngine) Rates() FlipRates { return e.rates }

// InjectedFlips returns the total number of bits flipped so far.
func (e *PerturbedEngine) InjectedFlips() int64 { return e.mul.flips + e.acc.flips }

// CorruptedWords returns how many exposed words took at least one
// flip so far.
func (e *PerturbedEngine) CorruptedWords() int64 { return e.mul.words + e.acc.words }

// OddFlipWords returns how many exposed words took an odd number of
// flips so far — the word-level errors a per-word parity wavelength
// detects. Words with an even flip count cancel in the parity bit and
// escape detection, which is exactly the blind spot a real parity
// frame has; internal/protect's detect-and-retry scheme keys off this
// counter so its coverage is faithful rather than oracle-perfect.
func (e *PerturbedEngine) OddFlipWords() int64 { return e.mul.oddWords + e.acc.oddWords }

// BitsExposed returns how many bits have passed through active
// (non-zero-rate) injection streams — the denominator of the injected
// bit-error rate.
func (e *PerturbedEngine) BitsExposed() int64 { return e.mul.bits + e.acc.bits }

// InjectedBER returns the realized injected bit-error rate, 0 when no
// stream is active.
func (e *PerturbedEngine) InjectedBER() float64 {
	exposed := e.BitsExposed()
	if exposed == 0 {
		return 0
	}
	return float64(e.InjectedFlips()) / float64(exposed)
}

// Multiply computes neuron*synapse and flips product bits at the Mul
// rate. A product of two Bits()-wide operands spans at most 2*Bits()
// bits, and flips are confined to that window, so a corrupted product
// still fits the accumulator.
func (e *PerturbedEngine) Multiply(neuron, synapse uint64) (uint64, Stats, error) {
	v, st, err := e.base.Multiply(neuron, synapse)
	if err != nil {
		return 0, Stats{}, err
	}
	return e.mul.apply(v, e.prodWidth) & e.base.accMask, st, nil
}

// DotProduct mirrors FastEngine.DotProduct with injection: each
// element's product is corrupted at the Mul rate before the merge, and
// the running accumulator is corrupted at the Acc rate after it.
func (e *PerturbedEngine) DotProduct(neurons, synapses []uint64) (uint64, Stats, error) {
	if len(neurons) != len(synapses) {
		return 0, Stats{}, fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", len(neurons), len(synapses))
	}
	for i := range neurons {
		if err := e.base.checkOperand("neuron", neurons[i]); err != nil {
			return 0, Stats{}, err
		}
		if err := e.base.checkOperand("synapse", synapses[i]); err != nil {
			return 0, Stats{}, err
		}
	}
	var acc uint64
	for i := range neurons {
		p := e.mul.apply(neurons[i]*synapses[i]&e.base.accMask, e.prodWidth)
		acc = (acc + p) & e.base.accMask
		acc = e.acc.apply(acc, e.base.accWidth)
	}
	n := len(neurons)
	st := e.base.multiplyStats()
	st.Adds++
	return acc, Stats{
		Cycles:  n * st.Cycles,
		BitANDs: n * st.BitANDs,
		Adds:    n * st.Adds,
		Shifts:  n * st.Shifts,
	}, nil
}

// Window mirrors FastEngine.Window through the perturbed datapath; the
// cross-filter merge is electrical in every design and stays clean.
func (e *PerturbedEngine) Window(inputs [][]uint64, synapses [][][]uint64) ([]uint64, Stats, error) {
	var st Stats
	out := make([]uint64, len(synapses))
	for k, filter := range synapses {
		if len(filter) != len(inputs) {
			return nil, Stats{}, fmt.Errorf("bitserial: filter %d has %d lanes, inputs have %d", k, len(filter), len(inputs))
		}
		var acc uint64
		for lane := range filter {
			v, vs, err := e.DotProduct(inputs[lane], filter[lane])
			if err != nil {
				return nil, Stats{}, fmt.Errorf("bitserial: filter %d lane %d: %w", k, lane, err)
			}
			acc = (acc + v) & e.base.accMask
			vs.Adds++
			st.add(vs)
		}
		out[k] = acc
	}
	if len(synapses) > 0 && len(inputs) > 0 {
		st.Cycles = len(inputs[0]) * e.base.bits
	}
	return out, st, nil
}
