package pixel_test

import (
	"context"
	"errors"
	"testing"

	"pixel"
)

// TestContextFormsHonourCancellation proves every canonical entry
// point returns the context's error without doing model work when ctx
// is already done.
func TestContextFormsHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := pixel.Point{Design: pixel.OO, Lanes: 4, Bits: 8}

	if _, err := pixel.EvaluateContext(ctx, "LeNet", p); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateContext err = %v, want context.Canceled", err)
	}
	if _, err := pixel.PowerContext(ctx, "LeNet", p); !errors.Is(err, context.Canceled) {
		t.Errorf("PowerContext err = %v, want context.Canceled", err)
	}
	if _, err := pixel.AreaContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Errorf("AreaContext err = %v, want context.Canceled", err)
	}
	if _, err := pixel.MapContext(ctx, pixel.MapSpec{Network: "LeNet", Point: p, Rows: 4, Cols: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("MapContext err = %v, want context.Canceled", err)
	}
	if _, err := pixel.InferContext(ctx, pixel.InferSpec{Network: "tiny", Images: [][]int64{make([]int64, 64)}}); !errors.Is(err, context.Canceled) {
		t.Errorf("InferContext err = %v, want context.Canceled", err)
	}
}
