package check

import (
	"sync/atomic"
	"testing"
)

// TestRunSharded: every index is visited exactly once, worker ids are in
// range, and each worker's queue is contiguous and processed in order.
func TestRunSharded(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 100} {
			visits := make([]int32, n)
			workerOf := make([]int32, n)
			RunSharded(workers, n, func(w, i int) {
				atomic.AddInt32(&visits[i], 1)
				atomic.StoreInt32(&workerOf[i], int32(w))
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
			// Contiguity: the worker id must be non-decreasing over the
			// index space (queues are contiguous slices of [0, n)).
			for i := 1; i < n; i++ {
				if workerOf[i] < workerOf[i-1] {
					t.Fatalf("workers=%d n=%d: worker ids not contiguous: %v", workers, n, workerOf)
				}
			}
		}
	}
}

// TestRunShardedSerialFallback: one job (or one worker) must run on the
// caller's goroutine as worker 0.
func TestRunShardedSerialFallback(t *testing.T) {
	var got []int
	RunSharded(8, 1, func(w, i int) { got = append(got, w, i) }) // no race: serial path
	if len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("serial fallback: %v", got)
	}
}
