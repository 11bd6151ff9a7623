package bitserial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gapRates are the flip rates the sampler is pinned at: saturation
// (0.5, where every binade holds one breakpoint) and just below it,
// dense and sparse rates, the Monte-Carlo model's smallest non-zero
// rate (1e-15, montecarlo.MinFlipProb) and the all-flip rate.
var gapRates = []float64{0.5, 0.49999, 0.25, 0.1, 1e-3, 1e-6, 1e-15, 1}

// builtTable returns the threshold table a stream at rate p builds.
func builtTable(p float64) (*gapTable, float64) {
	logq := math.Log1p(-p)
	t := new(gapTable)
	t.build(logq)
	return t, logq
}

// checkGap fails the test when the table answers x with anything but
// exactGap's value, and reports whether it answered.
func checkGap(t *testing.T, tab *gapTable, logq, p, x float64) bool {
	g, ok := tab.lookup(x)
	if ok && g != exactGap(x, logq) {
		t.Fatalf("p=%g x=%v (%#x): table gap %d, exact formula %d",
			p, x, math.Float64bits(x), g, exactGap(x, logq))
	}
	return ok
}

// TestGapTableSize pins how far the table reaches: to tableFloor at
// saturation, to its capacity at dense rates, and not at all where
// neighbouring breakpoints sit inside each other's guard bands or
// p = 1 leaves nothing to sample.
func TestGapTableSize(t *testing.T) {
	for _, tc := range []struct {
		p float64
		n int
	}{{0.5, 20}, {0.25, 48}, {1e-3, gapTableSize}, {1e-15, 0}, {1, 0}} {
		if tab, _ := builtTable(tc.p); tab.n != tc.n {
			t.Errorf("p=%g: table holds %d breakpoints, want %d", tc.p, tab.n, tc.n)
		}
	}
}

// TestGapTableRandomDraws compares the table with the exact formula
// on 5M production-distributed draws x = 1-Float64() per rate, plus
// 1M x uniform over the float64 bit patterns in (0, 1], which reach
// every binade and the tail.
func TestGapTableRandomDraws(t *testing.T) {
	const draws, patterns = 5_000_000, 1_000_000
	one := math.Float64bits(1)
	for i, p := range gapRates {
		tab, logq := builtTable(p)
		rng := rand.New(rand.NewSource(int64(i + 1)))
		answered := 0
		for k := 0; k < draws; k++ {
			if checkGap(t, tab, logq, p, 1-rng.Float64()) {
				answered++
			}
		}
		for k := 0; k < patterns; k++ {
			checkGap(t, tab, logq, p, math.Float64frombits(1+uint64(rng.Int63n(int64(one)))))
		}
		// The table must actually carry the dense rates: outside it
		// only the bands and the tail below (1-p)^n are left.
		if tab.n > 0 {
			if want := 1 - 2*math.Pow(1-p, float64(tab.n)); float64(answered) < want*draws {
				t.Errorf("p=%g: table answered %d of %d draws, want at least %.0f", p, answered, draws, want*draws)
			}
		}
	}
}

// breakpoint returns the smallest float64 x in (0, 1] at which
// exactGap(x) < m, found by bisection over the float64 bit order with
// the formula itself.
func breakpoint(m uint64, logq float64) float64 {
	lo, hi := uint64(1), math.Float64bits(1) // exactGap(lo) >= m > exactGap(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if exactGap(math.Float64frombits(mid), logq) >= m {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(hi)
}

// TestGapTableNearBreakpoints checks every float64 within 4096 ulps
// of each of the exact formula's breakpoints the table could hold —
// the only places where math.Log's rounding can move the floor, and
// where the table's guard bands begin and end.
func TestGapTableNearBreakpoints(t *testing.T) {
	const ulps = 4096
	for _, p := range gapRates {
		if p >= 1 {
			continue // every gap is 0: there are no breakpoints
		}
		tab, logq := builtTable(p)
		answered := 0
		for m := uint64(1); m <= gapTableSize+1; m++ {
			b := math.Float64bits(breakpoint(m, logq))
			for x := b - ulps; x <= b+ulps && x <= math.Float64bits(1); x++ {
				if checkGap(t, tab, logq, p, math.Float64frombits(x)) {
					answered++
				}
			}
		}
		if tab.n > 0 && answered == 0 {
			t.Errorf("p=%g: the table answered nothing near its breakpoints", p)
		}
	}
}

// exactStream returns a stream whose table is never built, so every
// gap it draws is exactGap's.
func exactStream(p float64, seed int64) *flipStream {
	s := &flipStream{p: p, rng: rand.New(rand.NewSource(seed)), logq: math.Log1p(-p), draws: tableAfter}
	if p > 0 {
		s.countdown = s.gap()
	}
	return s
}

// TestFlipStreamMatchesExactFormula drives a production stream and an
// exact-formula stream from one seed over random word widths: the
// XORed words and every counter must agree word by word.
func TestFlipStreamMatchesExactFormula(t *testing.T) {
	f := func(seed int64, rate uint8, widths []uint8, words []uint64) bool {
		p := gapRates[int(rate)%len(gapRates)]
		s := newFlipStream(p, rand.New(rand.NewSource(seed)))
		ref := exactStream(p, seed)
		// Repeat the words so dense streams pass tableAfter draws and
		// run on their tables for most of the property.
		for r := 0; r < 8; r++ {
			for i, w := range widths {
				width := int(w)%64 + 1
				var v uint64
				if i < len(words) {
					v = words[i]
				}
				if s.apply(v, width) != ref.apply(v, width) {
					return false
				}
			}
		}
		return s.flips == ref.flips && s.words == ref.words && s.oddWords == ref.oddWords &&
			s.bits == ref.bits && s.countdown == ref.countdown
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
