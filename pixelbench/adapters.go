package main

import (
	"context"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"pixel"
	"pixel/internal/bitserial"
	"pixel/internal/qnn"
	"pixel/internal/server"
)

// The adapters below wrap interfaces the program already accepts, so
// each layer is timed from outside: with a nil tracer they only
// forward, which is how the untraced runs measure.

// timedInfer wraps the server's InferEvaluator: one span per batched
// pass, keyed by the content hash of every image it carried so the
// request that rode in it can be found afterwards.
type timedInfer struct {
	inner server.InferEvaluator
	tr    *tracer
}

func (t timedInfer) InferContext(ctx context.Context, spec pixel.InferSpec) ([]pixel.InferResult, error) {
	if t.tr == nil {
		return t.inner.InferContext(ctx, spec)
	}
	start := t.tr.now()
	res, err := t.inner.InferContext(ctx, spec)
	end := t.tr.now()
	keys := make([]uint64, len(spec.Images))
	for i, img := range spec.Images {
		keys[i] = hashImage(img)
	}
	t.tr.add(span{Name: "pixel.infer", Start: start, End: end, Key: keys, Tag: spec.Network, N: len(spec.Images)})
	return res, err
}

func (t timedInfer) NetworkShape(name string) (pixel.InferShape, error) {
	return t.inner.NetworkShape(name)
}

// timedEvaluator wraps a sweep engine as the server's Evaluator: one
// span per SweepNetworks call, keyed by its points so the coordinator
// request a shard belongs to can be found afterwards.
type timedEvaluator struct {
	*pixel.Engine
	tr   *tracer
	name string
}

func (e timedEvaluator) SweepNetworks(ctx context.Context, networks []string, points []pixel.Point, opts *pixel.SweepOptions) (map[string][]pixel.Result, error) {
	if e.tr == nil {
		return e.Engine.SweepNetworks(ctx, networks, points, opts)
	}
	start := e.tr.now()
	res, err := e.Engine.SweepNetworks(ctx, networks, points, opts)
	end := e.tr.now()
	keys := make([]uint64, len(points))
	for i, p := range points {
		keys[i] = pointCode(p)
	}
	e.tr.add(span{Name: "sweep.engine." + e.name, Start: start, End: end, Key: keys,
		Tag: strings.Join(networks, ","), N: len(points) * len(networks)})
	return res, err
}

// fastDotter adapts a Stripes engine to qnn.Dotter: the sequential
// oracle path (RunContext on FastEngine) and the Monte-Carlo trial
// path (RunContext on PerturbedEngine) both run through it. calls
// counts dot products when non-nil.
type fastDotter struct {
	e     bitserial.Stripes
	calls *atomic.Int64
}

func (d fastDotter) DotProduct(a, b []uint64) (uint64, error) {
	if d.calls != nil {
		d.calls.Add(1)
	}
	v, _, err := d.e.DotProduct(a, b)
	return v, err
}

// timedMulti wraps the batched engine as qnn.MultiDotter and records a
// span per call under a parent, with the MACs the call computed (from
// its operand shapes).
type timedMulti struct {
	inner  qnn.MultiDotter
	tr     *tracer
	parent *int // span id of the RunBatch call in progress
}

func (m timedMulti) record(start time.Duration, macs int) {
	m.tr.add(span{Name: "bitserial.multi", Start: start, End: m.tr.now(), Parent: *m.parent, N: macs})
}

func (m timedMulti) DotProduct(a, b []uint64) (uint64, error) {
	s := m.tr.now()
	v, err := m.inner.DotProduct(a, b)
	m.record(s, len(a))
	return v, err
}

func (m timedMulti) DotProducts(windows [][]uint64, weights []uint64, out []uint64) error {
	s := m.tr.now()
	err := m.inner.DotProducts(windows, weights, out)
	m.record(s, len(windows)*len(weights))
	return err
}

func (m timedMulti) DotProductsMulti(windows [][]uint64, filters [][]uint64, outs [][]uint64) error {
	s := m.tr.now()
	err := m.inner.DotProductsMulti(windows, filters, outs)
	macs := 0
	if len(filters) > 0 {
		macs = len(windows) * len(filters) * len(filters[0])
	}
	m.record(s, macs)
	return err
}

// hashImage is the FNV-1a hash of an image's values.
func hashImage(img []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range img {
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// pointCode packs a design point into one comparable word.
func pointCode(p pixel.Point) uint64 {
	return uint64(p.Design)<<16 | uint64(p.Lanes)<<8 | uint64(p.Bits)
}
