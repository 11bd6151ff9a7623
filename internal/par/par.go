// Package par is the one worker pool the engines share: qnn's
// per-layer loops, the Monte-Carlo trial loop and the sweep grid loop.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Width resolves a requested pool width against n work items: <= 0
// means GOMAXPROCS, and the pool never exceeds the work count or drops
// below one.
func Width(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(ctx, worker, i) for every i in [0, n) across Width(workers,
// n) goroutines that claim indices from an atomic counter. The worker
// argument lets callers reuse per-worker scratch; a slot restored from
// a checkpoint is skipped by fn returning nil without work.
//
// The first failure cancels the ctx handed to fn, and the error
// reported is deterministic: the caller's own ctx error if it ended,
// else the lowest-index real failure, which beats the collateral
// context.Canceled of indices that were in flight when it hit — exactly
// what a serial loop would have reported. With one worker For runs
// inline, without goroutines.
func For(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Width(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := runCtx.Err(); err != nil {
					errs[i] = err
					return
				}
				if err := fn(runCtx, worker, i); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return cancelled
}
