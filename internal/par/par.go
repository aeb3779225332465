// Package par holds the tiny work-stealing fan-out primitive shared by every
// parallel batch API in the repository (core.Prepared, and pdb.PRFeFront for
// andxor.PreparedTree and junction.PreparedNetwork/PreparedChain). It exists
// so the correlated-data packages can parallelize without importing the
// independent-tuples engine.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker count ForWorkers will use for the given job
// count — callers size per-worker scratch with it.
func Workers(jobs int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForWorkers runs fn(worker, 0..jobs-1) across the given number of
// goroutines — callers obtain it from Workers(jobs) once and size any
// per-worker scratch with the same value, so a concurrent GOMAXPROCS change
// between sizing and dispatch cannot send a worker index out of range. Each
// job index runs exactly once; the worker index lets callers reuse per-worker
// scratch buffers across the jobs a worker drains instead of allocating fresh
// buffers per job. The call returns when all jobs are done.
func ForWorkers(workers, jobs int, fn func(worker, job int)) {
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			fn(0, j)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				j := int(atomic.AddInt64(&next, 1)) - 1
				if j >= jobs {
					return
				}
				fn(worker, j)
			}
		}(w)
	}
	wg.Wait()
}

// For runs fn(0..jobs-1) across at most GOMAXPROCS goroutines. Each index
// runs exactly once; the call returns when all are done.
func For(jobs int, fn func(j int)) {
	ForWorkers(Workers(jobs), jobs, func(_, j int) { fn(j) })
}

// ForWorkersCtx is ForWorkers with cooperative cancellation: every worker
// re-checks the context before claiming its next job, so a canceled batch
// stops after at most one in-flight job per worker instead of draining the
// whole queue. It returns ctx.Err() if the context was canceled (some jobs
// may then never have run) and nil once every job completed. A nil context
// behaves like context.Background().
//
// Cancellation granularity is one job: fn itself is never interrupted, so
// callers batching long-running work should keep individual jobs small
// (one grid point, one tuple block) for prompt aborts.
func ForWorkersCtx(ctx context.Context, workers, jobs int, fn func(worker, job int)) error {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx normalization: Background is the documented nil fallback
	}
	done := ctx.Done()
	if done == nil {
		ForWorkers(workers, jobs, fn)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, j)
		}
		return nil
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				j := int(atomic.AddInt64(&next, 1)) - 1
				if j >= jobs {
					return
				}
				fn(worker, j)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && int(atomic.LoadInt64(&next)) < jobs {
		return err
	}
	return nil
}

// ForCtx is For with cooperative cancellation: fn(0..jobs-1) across at most
// GOMAXPROCS goroutines, aborting between jobs once ctx is canceled.
func ForCtx(ctx context.Context, jobs int, fn func(j int)) error {
	return ForWorkersCtx(ctx, Workers(jobs), jobs, func(_, j int) { fn(j) })
}
