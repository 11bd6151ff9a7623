package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForRealErrorBeatsCollateralCancel: indices blocked when a later
// index fails end with context.Canceled, and For still reports the
// real failure.
func TestForRealErrorBeatsCollateralCancel(t *testing.T) {
	boom := errors.New("boom")
	err := For(context.Background(), 6, 6, func(ctx context.Context, _, i int) error {
		if i == 5 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestForCallerCancel: the caller's own cancellation is reported as
// such, at any width.
func TestForCallerCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := For(ctx, 100, workers, func(ctx context.Context, _, i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n == 100 {
			t.Fatalf("workers=%d: every index ran after the cancel", workers)
		}
	}
}

// TestForCoversEveryIndexOnce at widths below, at and above n.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		seen := make([]atomic.Int64, 10)
		if err := For(context.Background(), len(seen), workers, func(_ context.Context, w, i int) error {
			if w < 0 || w >= Width(workers, len(seen)) {
				t.Errorf("worker index %d out of range", w)
			}
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}
