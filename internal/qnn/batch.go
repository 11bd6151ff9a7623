package qnn

import "fmt"

// BatchDotter is the layer-level MAC abstraction: one packed weight
// vector evaluated against many activation windows in a single call.
// Engines that can amortize per-call overhead (or batch in hardware,
// as the photonic PE does across its wavelength lanes) implement it;
// plain Dotter implementations are adapted via dotBatch.
type BatchDotter interface {
	Dotter
	// DotProducts writes the dot product of each window against
	// weights into out[i]. len(out) must equal len(windows).
	DotProducts(windows [][]uint64, weights []uint64, out []uint64) error
}

// DotProducts implements BatchDotter with a single validated pass —
// the batched form of the oracle avoids one interface dispatch and one
// length check per window.
func (ReferenceDotter) DotProducts(windows [][]uint64, weights []uint64, out []uint64) error {
	if len(out) != len(windows) {
		return fmt.Errorf("qnn: out length %d != %d windows", len(out), len(windows))
	}
	for i, w := range windows {
		if len(w) != len(weights) {
			return fmt.Errorf("qnn: vector lengths differ (%d vs %d)", len(w), len(weights))
		}
		ws := weights[:len(w)] // elide the bounds check in the MAC loop
		var acc uint64
		for j, v := range w {
			acc += v * ws[j]
		}
		out[i] = acc
	}
	return nil
}

// MultiDotter is the layer-against-batch MAC abstraction: every filter
// of a layer evaluated against every window of a batch in one call, so
// the engine can hoist per-batch setup (transposes, validation) across
// the whole filter sweep. bitserial.BatchedStripes implements it;
// everything else is adapted via dotMulti.
type MultiDotter interface {
	BatchDotter
	// DotProductsMulti writes windows[w] · filters[f] into outs[f][w].
	// len(outs) must equal len(filters) and each row must have
	// len(windows) slots.
	DotProductsMulti(windows [][]uint64, filters [][]uint64, outs [][]uint64) error
}

// dotMulti evaluates every filter against every window, through the
// engine's multi-filter entry point when it has one and per-filter
// dotBatch sweeps otherwise.
func dotMulti(d Dotter, windows [][]uint64, filters [][]uint64, outs [][]uint64) error {
	if md, ok := d.(MultiDotter); ok {
		return md.DotProductsMulti(windows, filters, outs)
	}
	if len(outs) != len(filters) {
		return fmt.Errorf("qnn: %d output rows != %d filters", len(outs), len(filters))
	}
	for f := range filters {
		if err := dotBatch(d, windows, filters[f], outs[f]); err != nil {
			return err
		}
	}
	return nil
}

// dotBatch evaluates weights against every window, through the
// engine's batched entry point when it has one and per-window
// DotProduct calls otherwise.
func dotBatch(d Dotter, windows [][]uint64, weights []uint64, out []uint64) error {
	if bd, ok := d.(BatchDotter); ok {
		return bd.DotProducts(windows, weights, out)
	}
	if len(out) != len(windows) {
		return fmt.Errorf("qnn: out length %d != %d windows", len(out), len(windows))
	}
	for i, w := range windows {
		v, err := d.DotProduct(w, weights)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}
