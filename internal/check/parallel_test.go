package check

import (
	"reflect"
	"sync/atomic"
	"testing"

	"deltanet/internal/core"
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

func TestFindLoopsDeltaParallelAgrees(t *testing.T) {
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	var last *core.Delta
	for i := 0; i < 3; i++ {
		last = mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 1000), Priority: 1})
	}
	serial := FindLoopsDelta(n, last)
	parallel := FindLoopsDeltaParallel(n, last, 4)
	if len(serial) == 0 || len(parallel) == 0 {
		t.Fatalf("loops: serial=%d parallel=%d", len(serial), len(parallel))
	}
	if FindLoopsDeltaParallel(n, nil, 4) != nil {
		t.Fatal("nil delta")
	}
	if got := FindLoopsDeltaParallel(n, &core.Delta{}, 4); got != nil {
		t.Fatal("empty delta")
	}
	// Workers clamp: more workers than atoms.
	if got := FindLoopsDeltaParallel(n, last, 1000); len(got) == 0 {
		t.Fatal("clamped workers missed loop")
	}

	// A batch past the parallel threshold closing many loops: the parallel
	// check returns the serial check's list, order included, every time —
	// a B reply, a LoopFree event detail and a replica's view of the same
	// delta must not depend on goroutine scheduling.
	if _, err := n.RemoveRule(3); err != nil {
		t.Fatal(err)
	}
	// Each range gains a label at x first, whose walk ends at y, then the
	// one at c that closes the ring: every label's source is walked, not
	// just an atom's first.
	xy := g.AddLink(g.AddNode("x"), g.AddNode("y"))
	var ops []core.BatchOp
	for i := 0; i < 80; i++ {
		match := iv(uint64(10*i), uint64(10*i+5))
		ops = append(ops,
			core.InsertOp(core.Rule{ID: core.RuleID(100 + i), Source: g.Link(xy).Src, Link: xy, Match: match, Priority: 1}),
			core.InsertOp(core.Rule{ID: core.RuleID(300 + i), Source: nodes[2], Link: links[2], Match: match, Priority: 1}))
	}
	var d core.Delta
	if err := n.ApplyBatch(ops, &d, 0); err != nil {
		t.Fatal(err)
	}
	want := FindLoopsDelta(n, &d)
	if len(d.Added) < parallelDeltaThreshold || len(want) != 80 {
		t.Fatalf("batch added %d labels and closed %d loops, want ≥ %d and 80", len(d.Added), len(want), parallelDeltaThreshold)
	}
	for run := 0; run < 50; run++ {
		if got := FindLoopsDeltaParallel(n, &d, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: parallel check's %d loops are not the serial check's %d, in order", run, len(got), len(want))
		}
	}
}
