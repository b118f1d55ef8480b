package check

import (
	"runtime"
	"sync"
	"sync/atomic"

	"deltanet/internal/core"
)

// parallelDeltaThreshold is the number of Added entries above which the
// goroutine-parallel delta loop check beats the serial one; below it the
// fan-out overhead dominates. Shared by every call site that wants the
// size-based choice (FindLoopsDeltaAuto).
const parallelDeltaThreshold = 64

// RunParallel invokes fn(i) for every i in [0, n) over a bounded worker
// pool — the paper's §6 parallelization pattern, shared by the delta loop
// check and the invariant monitor. workers ≤ 0 selects GOMAXPROCS; when
// the pool would not pay for itself (one worker or one job) the calls run
// serially on the caller's goroutine. fn must be safe to call concurrently
// for distinct indices.
func RunParallel(workers, n int, fn func(i int)) {
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
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunSharded invokes fn(worker, i) for every i in [0, n), partitioning the
// index space into contiguous per-worker queues: worker w owns one slice of
// [0, n) and processes it in order. Unlike RunParallel's dynamic work
// stealing, the static queues give each worker a stable identity and a
// cache-friendly contiguous range, so callers can keep per-worker scratch
// (evaluation queues, result buffers) without any locking — the sharding
// hook the invariant monitor fans its dirty-set evaluations out over.
// workers ≤ 0 selects GOMAXPROCS; one worker or one job runs serially on
// the caller's goroutine as worker 0.
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

// FindLoopsDeltaAuto picks the serial or parallel delta loop check by
// delta size: merged batch deltas with many label additions fan out over
// the worker pool, while the common 1–2 atom delta stays serial.
func FindLoopsDeltaAuto(n *core.Network, d *core.Delta, workers int) []Loop {
	if d == nil || len(d.Added) < parallelDeltaThreshold {
		return FindLoopsDelta(n, d)
	}
	return FindLoopsDeltaParallel(n, d, workers)
}

// FindLoopsDeltaAutoScratch is FindLoopsDeltaAuto with caller-owned
// scratch for the serial path (the steady-state case). The parallel path
// fans out over goroutines, which need one scratch each, so it draws from
// the package pool instead of sc.
func FindLoopsDeltaAutoScratch(n *core.Network, d *core.Delta, workers int, sc *Scratch) []Loop {
	if d == nil || len(d.Added) < parallelDeltaThreshold {
		return FindLoopsDeltaScratch(n, d, sc)
	}
	return FindLoopsDeltaParallel(n, d, workers)
}

// FindLoopsDeltaParallel is FindLoopsDelta fanned out over goroutines —
// the paper's §6 observation that "the main loops over atoms in
// Algorithm 1 and 2 are highly parallelizable" applies to the delta
// check too, since a walk only reads engine state. It pays off when a
// delta touches many atoms (bulk updates, link failures); for the common
// 1–2 atom delta the serial version is faster. workers ≤ 0 selects
// GOMAXPROCS.
//
// A job is one run of consecutive added labels of the same atom (a batch
// delta lists its labels atom by atom): it walks from each label's
// source in order (loopFrom) and keeps the first loop, as the serial
// check does for that atom. Jobs write their own slots, compacted in
// order, so the result is FindLoopsDelta's element for element and never
// depends on goroutine scheduling.
func FindLoopsDeltaParallel(n *core.Network, d *core.Delta, workers int) []Loop {
	if d == nil || len(d.Added) == 0 {
		return nil
	}
	var runs []int // start of each run, then len(d.Added)
	for i, la := range d.Added {
		if i == 0 || la.Atom != d.Added[i-1].Atom {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(d.Added))
	g := n.Graph()
	found := make([]Loop, len(runs)-1)
	RunParallel(workers, len(found), func(j int) {
		sc := GetScratch()
		defer PutScratch(sc)
		sc.growNodes(g.NumNodes())
		sc.beginVerdicts()
		sc.beginWalk()
		for _, la := range d.Added[runs[j]:runs[j+1]] {
			if loop, ok := loopFrom(n, la.Atom, g.Link(la.Link).Src, sc); ok {
				found[j] = loop
				return
			}
		}
	})
	// An atom split over several runs (a batch's merged delta) keeps the
	// loop of its first looping run, as the serial check does.
	sc := GetScratch()
	defer PutScratch(sc)
	sc.beginAtoms(n.MaxAtomID())
	var loops []Loop
	for _, loop := range found {
		if loop.Nodes != nil && !sc.markAtom(loop.Atom) {
			loops = append(loops, loop)
		}
	}
	return loops
}
