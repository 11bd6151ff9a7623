// Package qnn runs quantized CNN inference over any MAC implementation
// — the bridge between the functional datapaths (package omac /
// bitserial) and whole networks. A Model is a sequence of integer
// layers (conv, pool, fully-connected, requantize); Run executes every
// multiply-accumulate through the supplied Dotter, so the same model
// can execute on the electrical Stripes engine, the hybrid OE unit or
// the all-optical OO unit, and the outputs can be compared bit for bit
// against the plain-integer reference.
//
// The MAC layers run as a lowered pipeline: conv inputs become im2col
// patch matrices (tensor.Lower), filter weights are packed once per
// layer, and each output row is one batched dot-product call
// (BatchDotter), optionally fanned across a worker pool via
// RunContext. Every path is bit-identical to the serial per-position
// reference; see docs/INFERENCE.md.
package qnn

import (
	"context"
	"fmt"
	"sync"

	"pixel/internal/par"
	"pixel/internal/tensor"
)

// Dotter is the MAC abstraction a model runs on: an unsigned
// dot-product engine of fixed operand precision.
type Dotter interface {
	DotProduct(a, b []uint64) (uint64, error)
}

// ReferenceDotter computes dot products with plain integer arithmetic —
// the oracle implementation.
type ReferenceDotter struct{}

// DotProduct implements Dotter.
func (ReferenceDotter) DotProduct(a, b []uint64) (uint64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("qnn: vector lengths differ (%d vs %d)", len(a), len(b))
	}
	var acc uint64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// Layer is one step of a quantized model.
type Layer interface {
	// Name labels the layer in errors.
	Name() string
	// Apply transforms the activation tensor using the Dotter for
	// every MAC.
	Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error)
}

// Model is a named sequence of layers with a fixed activation
// precision.
type Model struct {
	// Label names the model.
	Label string
	// ActivationBits bounds the activation values between layers;
	// Requant layers clamp to this range.
	ActivationBits int
	Layers         []Layer
}

// MaxActivation returns the largest representable activation.
func (m *Model) MaxActivation() int64 {
	return int64(1)<<uint(m.ActivationBits) - 1
}

// RunOptions tunes one RunContext call.
type RunOptions struct {
	// Workers is the worker-pool width the MAC layers fan their output
	// rows (conv) and output neurons (fully-connected) across; <= 0
	// means GOMAXPROCS, 1 is serial. Workers > 1 requires a Dotter
	// that is safe for concurrent use (ReferenceDotter and the
	// word-level bitserial.FastEngine are; the optical units metering
	// a shared optsim.Ledger are not). Output placement is
	// deterministic, so any worker count produces bit-identical
	// results.
	Workers int
	// Arena, when non-nil, supplies and recycles the inter-layer
	// activation tensors of RunBatch, so steady-state batches reuse
	// prior batches' storage instead of allocating. The batch's output
	// tensors come from it too: callers that recycle them (Put after
	// consuming) must do so only after the results are fully copied
	// out. Nil means RunBatch uses a private arena (tensors are still
	// recycled between layers within the batch). An Arena is not safe
	// for concurrent use — concurrent RunBatch calls need separate
	// arenas (pool whole arenas, as pixel.Infer does).
	Arena *tensor.Arena
}

// ctxLayer is the optional layer interface the parallel pipeline uses:
// layers that can fan work across a pool implement it, and plain
// layers keep the serial Apply path.
type ctxLayer interface {
	applyCtx(ctx context.Context, in *tensor.Tensor, d Dotter, workers int) (*tensor.Tensor, error)
}

// Run executes the model on the input through the given Dotter,
// serially — safe for any Dotter. Use RunContext to run the MAC layers
// across a worker pool.
func (m *Model) Run(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	return m.RunContext(context.Background(), in, d, RunOptions{Workers: 1})
}

// RunContext executes the model with cancellation and a configurable
// worker pool. Results are bit-identical to Run for every worker
// count.
func (m *Model) RunContext(ctx context.Context, in *tensor.Tensor, d Dotter, opts RunOptions) (*tensor.Tensor, error) {
	if m.ActivationBits < 1 || m.ActivationBits > 16 {
		return nil, fmt.Errorf("qnn: activation bits %d out of range [1,16]", m.ActivationBits)
	}
	x := in
	var err error
	for _, l := range m.Layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cl, ok := l.(ctxLayer); ok {
			x, err = cl.applyCtx(ctx, x, d, opts.Workers)
		} else {
			x, err = l.Apply(x, d)
		}
		if err != nil {
			return nil, fmt.Errorf("qnn: %s: layer %s: %w", m.Label, l.Name(), err)
		}
	}
	return x, nil
}

// Conv is a quantized convolution layer.
type Conv struct {
	Label  string
	Kernel *tensor.Kernel
	Stride int
	// Pad is the zero padding on every side, wired through the im2col
	// lowering (parity with tensor.Conv2D); padded positions
	// contribute zero activations.
	Pad int

	// packOnce caches the engine-operand form of the kernel weights
	// the first time the layer runs (packedFilters); the kernel must
	// not be mutated afterwards.
	packOnce sync.Once
	packed   [][]uint64
	packErr  error
}

// Name implements Layer.
func (c *Conv) Name() string { return c.Label }

// Apply implements Layer, serially. The input is lowered to an im2col
// patch matrix once, each filter's weights are packed once per layer
// (instead of once per output position), and every output row is one
// batched dot-product call.
func (c *Conv) Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	return c.applyCtx(context.Background(), in, d, 1)
}

// applyCtx implements ctxLayer: output rows fan across the worker
// pool, with each worker writing disjoint rows of the output tensor so
// the result is bit-identical to the serial pass.
func (c *Conv) applyCtx(ctx context.Context, in *tensor.Tensor, d Dotter, workers int) (*tensor.Tensor, error) {
	k := c.Kernel
	if in.C != k.C {
		return nil, fmt.Errorf("qnn: input channels %d != kernel channels %d", in.C, k.C)
	}
	if c.Stride < 1 {
		return nil, fmt.Errorf("qnn: stride %d", c.Stride)
	}
	if c.Pad < 0 {
		return nil, fmt.Errorf("qnn: pad %d", c.Pad)
	}
	eh := (in.H+2*c.Pad-k.R)/c.Stride + 1
	ew := (in.W+2*c.Pad-k.R)/c.Stride + 1
	if eh < 1 || ew < 1 {
		return nil, fmt.Errorf("qnn: kernel %d too large for %dx%d input with pad %d", k.R, in.H, in.W, c.Pad)
	}
	for i, v := range in.Data {
		if v < 0 {
			return nil, fmt.Errorf("qnn: negative activation %d at (%d,%d,%d)",
				v, i/(in.W*in.C), (i/in.C)%in.W, i%in.C)
		}
	}

	p, err := tensor.Lower(in, k.R, c.Stride, c.Pad)
	if err != nil {
		return nil, fmt.Errorf("qnn: %s: %w", c.Label, err)
	}
	// One backing allocation for every window; activations were
	// validated non-negative above and padding contributes zeros.
	wbuf := make([]uint64, p.Rows*p.Cols)
	windows := make([][]uint64, p.Rows)
	for i := range windows {
		dst := wbuf[i*p.Cols : (i+1)*p.Cols : (i+1)*p.Cols]
		for j, v := range p.Row(i) {
			dst[j] = uint64(v)
		}
		windows[i] = dst
	}
	// The engine-operand filter weights, packed once per process and
	// cached on the layer.
	filters, err := c.packedFilters()
	if err != nil {
		return nil, err
	}

	out := tensor.New(p.EH, p.EW, k.M)
	workers = par.Width(workers, p.EH)
	scratch := make([]uint64, workers*p.EW)
	err = par.For(ctx, p.EH, workers, func(_ context.Context, worker, oy int) error {
		rowOut := scratch[worker*p.EW : (worker+1)*p.EW]
		rowWins := windows[oy*p.EW : (oy+1)*p.EW]
		for m := 0; m < k.M; m++ {
			if err := dotBatch(d, rowWins, filters[m], rowOut); err != nil {
				return err
			}
			base := oy * p.EW * k.M
			for ox := 0; ox < p.EW; ox++ {
				out.Data[base+ox*k.M+m] = int64(rowOut[ox])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaxPool is a pooling layer (no MACs).
type MaxPool struct {
	Label  string
	Window int
}

// Name implements Layer.
func (p *MaxPool) Name() string { return p.Label }

// Apply implements Layer.
func (p *MaxPool) Apply(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
	return tensor.MaxPool2D(in, p.Window)
}

// FullyConnected is a quantized dense layer.
type FullyConnected struct {
	Label   string
	Weights []int64 // row-major [out][in]
	Out     int

	// packOnce caches the engine-operand form of the weight matrix the
	// first time the layer runs (packedWeights); the weights must not
	// be mutated afterwards.
	packOnce sync.Once
	packed   [][]uint64
	packErr  error
}

// Name implements Layer.
func (f *FullyConnected) Name() string { return f.Label }

// Apply implements Layer, serially.
func (f *FullyConnected) Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	return f.applyCtx(context.Background(), in, d, 1)
}

// applyCtx implements ctxLayer: the whole weight matrix is packed once
// up front and output neurons fan across the worker pool, each writing
// its own slot.
func (f *FullyConnected) applyCtx(ctx context.Context, in *tensor.Tensor, d Dotter, workers int) (*tensor.Tensor, error) {
	n := in.Len()
	if f.Out < 1 {
		return nil, fmt.Errorf("qnn: output size %d", f.Out)
	}
	if len(f.Weights) != n*f.Out {
		return nil, fmt.Errorf("qnn: weight matrix %d != %d x %d", len(f.Weights), f.Out, n)
	}
	xs := make([]uint64, n)
	for i, v := range in.Data {
		if v < 0 {
			return nil, fmt.Errorf("qnn: negative activation %d", v)
		}
		xs[i] = uint64(v)
	}
	ws, err := f.packedWeights()
	if err != nil {
		return nil, err
	}
	out := tensor.New(1, 1, f.Out)
	err = par.For(ctx, f.Out, workers, func(_ context.Context, _, o int) error {
		acc, err := d.DotProduct(xs, ws[o])
		if err != nil {
			return err
		}
		out.Data[o] = int64(acc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Requant rescales and clamps activations back into range between MAC
// layers (the fixed-point equivalent of the activation function stage).
type Requant struct {
	Label string
	Shift uint // divide by 2^Shift
	Max   int64
}

// Name implements Layer.
func (r *Requant) Name() string { return r.Label }

// Apply implements Layer.
func (r *Requant) Apply(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
	if r.Max < 1 {
		return nil, fmt.Errorf("qnn: requant max %d", r.Max)
	}
	out := tensor.New(in.H, in.W, in.C)
	for i, v := range in.Data {
		v >>= r.Shift
		if v < 0 {
			v = 0
		}
		if v > r.Max {
			v = r.Max
		}
		out.Data[i] = v
	}
	return out, nil
}

// Flatten reshapes to a vector (no MACs).
type Flatten struct{ Label string }

// Name implements Layer.
func (f *Flatten) Name() string { return f.Label }

// Apply implements Layer.
func (f *Flatten) Apply(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
	out := tensor.New(1, 1, in.Len())
	copy(out.Data, in.Data)
	return out, nil
}
