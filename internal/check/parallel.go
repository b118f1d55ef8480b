package check

import (
	"runtime"
	"sync"
)

// RunSharded invokes fn(worker, i) for every i in [0, n), partitioning the
// index space into contiguous per-worker queues: worker w owns one slice of
// [0, n) and processes it in order. The static queues give each worker a
// stable identity and a cache-friendly contiguous range, so callers can
// keep per-worker scratch (evaluation queues, result buffers) without any
// locking. The invariant monitor fans its dirty-set evaluations out over
// it: of the paper's §6 parallelisation pattern, the one fan-out that
// measures as a gain here (see monitor.evaluatePass). workers ≤ 0 selects
// GOMAXPROCS; one worker or one job runs serially on the caller's
// goroutine as worker 0.
func RunSharded(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Queue w is [w*n/workers, (w+1)*n/workers): contiguous, and the
		// sizes differ by at most one.
		lo, hi := w*n/workers, (w+1)*n/workers
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(w, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
