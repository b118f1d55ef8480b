package ingest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltanet/internal/core"
)

// TestFIFO checks single-producer ordering and the empty/full edges.
func TestFIFO(t *testing.T) {
	r := New(4)
	if r.Cap() != 4 {
		t.Fatalf("cap %d, want 4", r.Cap())
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(Entry{Op: core.RemoveOp(core.RuleID(i))}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.TryPush(Entry{}) {
		t.Fatal("push into full ring succeeded")
	}
	if d := r.Depth(); d != 4 {
		t.Fatalf("depth %d, want 4", d)
	}
	for i := 0; i < 4; i++ {
		e, ok := r.TryPop()
		if !ok || e.Op.Rule.ID != core.RuleID(i) {
			t.Fatalf("pop %d: got %+v ok=%v", i, e, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
}

// TestMPSC hammers the ring from many producers against one consumer
// and checks that every entry arrives exactly once (run under -race in
// CI).
func TestMPSC(t *testing.T) {
	const producers = 8
	const perProducer = 5000
	r := New(256)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := core.RuleID(p*perProducer + i)
				if !r.Push(Entry{Op: core.RemoveOp(id)}) {
					t.Errorf("producer %d: push failed", p)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		r.Close()
	}()

	seen := make([]bool, producers*perProducer)
	lastPerProducer := make([]int64, producers)
	for i := range lastPerProducer {
		lastPerProducer[i] = -1
	}
	total := 0
	for {
		e, ok := r.Pop()
		if !ok {
			break
		}
		id := int64(e.Op.Rule.ID)
		if seen[id] {
			t.Fatalf("entry %d delivered twice", id)
		}
		seen[id] = true
		// Per-producer FIFO: a producer's entries arrive in push order.
		p := id / perProducer
		if id <= lastPerProducer[p] {
			t.Fatalf("producer %d reordered: %d after %d", p, id, lastPerProducer[p])
		}
		lastPerProducer[p] = id
		total++
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d entries, want %d", total, producers*perProducer)
	}
}

// TestBlockingPush checks that a producer blocked on a full ring is
// released by a consumer pop, not dropped.
func TestBlockingPush(t *testing.T) {
	r := New(2)
	for i := 0; i < r.Cap(); i++ {
		r.TryPush(Entry{Op: core.RemoveOp(core.RuleID(i))})
	}
	pushed := make(chan bool)
	go func() { pushed <- r.Push(Entry{Op: core.RemoveOp(99)}) }()
	select {
	case <-pushed:
		t.Fatal("push into full ring returned before a pop")
	case <-time.After(50 * time.Millisecond):
	}
	if _, ok := r.Pop(); !ok {
		t.Fatal("pop failed")
	}
	select {
	case ok := <-pushed:
		if !ok {
			t.Fatal("push reported closed ring")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked push never released")
	}
}

// TestCloseReleasesWaiters checks Close wakes both a blocked consumer
// and blocked producers, and that queued entries drain before Pop
// reports closure.
func TestCloseReleasesWaiters(t *testing.T) {
	r := New(2)
	popped := make(chan bool)
	go func() { _, ok := r.Pop(); popped <- ok }()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	r.TryPush(Entry{Op: core.RemoveOp(7)})
	select {
	case ok := <-popped:
		if !ok {
			t.Fatal("pop returned closed for a live entry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woke for a push")
	}

	r.TryPush(Entry{Op: core.RemoveOp(8)})
	r.Close()
	if e, ok := r.Pop(); !ok || e.Op.Rule.ID != 8 {
		t.Fatalf("queued entry lost at close: %+v ok=%v", e, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop after drain of a closed ring succeeded")
	}
	if r.Push(Entry{}) {
		t.Fatal("push into closed ring succeeded")
	}
}

// TestCloseDrainsEveryAcceptedPush races producers against Close: every
// entry a Push accepted is popped before Pop reports closure, so a
// producer that pushed may wait for its entry to be consumed.
func TestCloseDrainsEveryAcceptedPush(t *testing.T) {
	for round := 0; round < 200; round++ {
		r := New(8)
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r.Push(Entry{}) {
					accepted.Add(1)
				}
			}()
		}
		popped := make(chan int64)
		go func() {
			n := int64(0)
			for _, ok := r.Pop(); ok; _, ok = r.Pop() {
				n++
			}
			popped <- n
		}()
		time.Sleep(time.Duration(round%5) * 10 * time.Microsecond)
		r.Close()
		wg.Wait()
		if n, want := <-popped, accepted.Load(); n != want {
			t.Fatalf("round %d: popped %d entries, Push accepted %d", round, n, want)
		}
	}
}

// BenchmarkRing measures the contended push/pop cost per op — the
// per-op serial overhead the binary path pays instead of line parsing.
func BenchmarkRing(b *testing.B) {
	r := New(4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := r.Pop(); !ok {
				return
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Push(Entry{})
		}
	})
	r.Close()
	<-done
}
