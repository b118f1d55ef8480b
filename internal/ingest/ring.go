// Package ingest provides the bounded multi-producer single-consumer
// ring that decouples connection goroutines (decoding binary frames,
// replaying feeds) from the engine's serial apply path. Producers are
// the many ingestion sources; the single consumer is the server's
// coalescer, which drains runs of operations into core.ApplyBatch
// calls.
//
// The ring is a fixed-size Vyukov-style sequence-stamped buffer: the
// uncontended fast path of both Push and Pop is a handful of atomic
// operations with no lock, and slots hand values across with
// acquire/release ordering on their sequence stamps. Capacity is the
// backpressure boundary — when the ring is full, TryPush fails and the
// caller decides what the protocol says (the server emits a "busy"
// frame, then blocks in Push), so memory stays bounded no matter how
// fast feeds arrive. Blocking Push/Pop spin briefly and then park on a
// condition variable; the waiter flags are checked on the fast path
// with one atomic load, so an uncontended ring never touches the lock.
package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"

	"deltanet/internal/core"
)

// Entry is one queued operation: a decoded rule op or, when Unit is
// non-zero, a handle to something the consumer holds (Op unused); a
// handle rather than a pointer keeps the slot pointer-free at 56 bytes.
type Entry struct {
	Op   core.BatchOp
	Unit uint32
}

type slot struct {
	seq atomic.Uint64
	e   Entry
}

// Ring is the bounded MPSC queue. Producers call TryPush/Push from any
// goroutine; Pop/TryPop must be called from a single consumer
// goroutine. Close wakes every blocked producer and the consumer.
type Ring struct {
	mask  uint64
	slots []slot

	// enq is the producers' ticket counter (closedBit marks Close); deq
	// is the single consumer's (atomic only so Depth can read it).
	enq atomic.Uint64
	deq atomic.Uint64

	// popWait / pushWaiters are the park flags the fast paths check; mu
	// and the conds only see contended traffic. mu is package-local and
	// leaf: nothing is acquired while holding it.
	//
	//deltanet:lockrank 10
	mu          sync.Mutex
	notEmpty    *sync.Cond
	notFull     *sync.Cond
	popWait     atomic.Bool
	pushWaiters atomic.Int32
}

// closedBit is set in enq by Close. A producer's ticket CAS fails from
// then on, so the entries Push accepted are exactly the tickets below
// it, and Pop reports closure only once it has popped every one of them.
const closedBit = 1 << 63

// spinBudget is how many TryPush/TryPop attempts the blocking paths
// make (yielding between attempts) before parking on the lock.
const spinBudget = 64

// New returns a ring with the given capacity rounded up to a power of
// two (minimum 2).
func New(capacity int) *Ring {
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	r := &Ring{mask: n - 1, slots: make([]slot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	r.notEmpty = sync.NewCond(&r.mu)
	r.notFull = sync.NewCond(&r.mu)
	return r
}

func (r *Ring) closed() bool { return r.enq.Load()&closedBit != 0 }

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Depth returns the approximate number of queued entries (a gauge, not
// a synchronization primitive).
func (r *Ring) Depth() int {
	d := int64(r.enq.Load()&^closedBit) - int64(r.deq.Load())
	if d < 0 {
		d = 0
	}
	return int(d)
}

// tryPush is the lock-free enqueue core; it performs no waiter
// signaling so callers already holding mu can use it too.
func (r *Ring) tryPush(e Entry) bool {
	pos := r.enq.Load()
	for {
		if pos&closedBit != 0 {
			return false
		}
		s := &r.slots[pos&r.mask]
		switch seq := s.seq.Load(); {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.e = e
				s.seq.Store(pos + 1) // release: publishes s.e to the consumer
				return true
			}
			pos = r.enq.Load() // lost the ticket, or the ring closed
		case seq < pos:
			return false // the slot one lap back is still occupied: full
		default:
			pos = r.enq.Load() // another producer won this slot; reload
		}
	}
}

// TryPush enqueues e without blocking; it fails when the ring is full
// or closed.
func (r *Ring) TryPush(e Entry) bool {
	if !r.tryPush(e) {
		return false
	}
	if r.popWait.Load() {
		r.mu.Lock()
		r.notEmpty.Signal()
		r.mu.Unlock()
	}
	return true
}

// Push enqueues e, blocking while the ring is full. It reports false
// when the ring was closed before the entry could be enqueued.
func (r *Ring) Push(e Entry) bool {
	for i := 0; i < spinBudget; i++ {
		if r.TryPush(e) {
			return true
		}
		if r.closed() {
			return false
		}
		runtime.Gosched()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The waiter count is raised before the retry and stays raised
	// across the Wait, so a consumer that pops at any point after our
	// failed attempt is guaranteed to see it and broadcast (the Dekker
	// handshake mirrored in Pop). The retry uses the core tryPush — mu
	// is held, so the consumer-side signal path must not be re-entered.
	r.pushWaiters.Add(1)
	defer r.pushWaiters.Add(-1)
	for {
		if r.tryPush(e) {
			r.notEmpty.Signal() // mu already held; wake a parked consumer
			return true
		}
		if r.closed() {
			return false
		}
		r.notFull.Wait()
	}
}

// tryPop is the dequeue core; no waiter signaling (see tryPush).
func (r *Ring) tryPop() (Entry, bool) {
	pos := r.deq.Load()
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return Entry{}, false // empty (or the producer has not published yet)
	}
	e := s.e
	s.e = Entry{}
	s.seq.Store(pos + uint64(len(r.slots))) // release the slot for the next lap
	r.deq.Store(pos + 1)
	return e, true
}

// TryPop dequeues the next entry without blocking. Single consumer
// only.
func (r *Ring) TryPop() (Entry, bool) {
	e, ok := r.tryPop()
	if ok && r.pushWaiters.Load() > 0 {
		r.mu.Lock()
		r.notFull.Broadcast()
		r.mu.Unlock()
	}
	return e, ok
}

// Pop dequeues the next entry, blocking while the ring is empty. It
// reports false only once the ring is closed and every entry Push
// accepted has been popped. Single consumer only.
func (r *Ring) Pop() (Entry, bool) {
	for i := 0; i < spinBudget; i++ {
		if e, ok := r.TryPop(); ok {
			return e, true
		}
		if r.closed() {
			break // the locked loop below drains what is left
		}
		runtime.Gosched()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// popWait stays raised across the Wait so a producer publishing at
	// any point after the failed attempt below sees it and signals.
	r.popWait.Store(true)
	defer r.popWait.Store(false)
	for {
		e, ok := r.tryPop()
		if ok {
			if r.pushWaiters.Load() > 0 {
				r.notFull.Broadcast() // mu already held
			}
			return e, true
		}
		// A ticket claimed before Close may be unpublished; its producer signals.
		if enq := r.enq.Load(); enq&closedBit != 0 && r.deq.Load() == enq&^closedBit {
			return Entry{}, false
		}
		r.notEmpty.Wait()
	}
}

// Close marks the ring closed and wakes every blocked producer and the
// consumer. Every entry Push accepted remains poppable (Pop drains them
// before reporting closure); every later Push fails.
func (r *Ring) Close() {
	r.enq.Or(closedBit)
	r.mu.Lock()
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}
