// Package a is the lockorder analyzer's flagged fixture. M mirrors the
// monitor's lock lattice in miniature; each function demonstrates one
// violation class, including the seeded regression from the acceptance
// criteria: two lock acquisitions swapped against their declared ranks.
package a

import "sync"

// M carries a three-level lock hierarchy.
type M struct {
	// low is the outermost lock, like the monitor's applyMu.
	//
	//deltanet:lockrank 10
	low sync.Mutex

	//deltanet:lockrank 20
	mid sync.RWMutex

	//deltanet:lockrank 30
	high sync.Mutex

	n int
}

// ok is the disciplined shape: strictly increasing ranks, all released.
func (m *M) ok() {
	m.low.Lock()
	defer m.low.Unlock()
	m.mid.Lock()
	m.n++
	m.mid.Unlock()
}

// swapped inverts the declared order — the seeded regression.
func (m *M) swapped() {
	m.high.Lock()
	m.low.Lock() // want `acquires M\.low \(lockrank 10\) while M\.high \(lockrank 30\) is held`
	m.n++
	m.low.Unlock()
	m.high.Unlock()
}

// reentrant takes the same rank twice; equal ranks are unordered peers.
func (m *M) reentrant() {
	m.mid.RLock()
	m.mid.RLock() // want `acquires M\.mid \(lockrank 20\) while M\.mid \(lockrank 20\) is held`
	m.mid.RUnlock()
	m.mid.RUnlock()
}

// lockMid gives viaCall a summary to trip over.
func (m *M) lockMid() {
	m.mid.Lock()
	m.n++
	m.mid.Unlock()
}

// viaCall violates the order one call away: the callee's transitive
// summary includes mid (20), which is below the held high (30).
func (m *M) viaCall() {
	m.high.Lock()
	defer m.high.Unlock()
	m.lockMid() // want `call to lockMid acquires M\.mid \(lockrank 20\) while M\.high \(lockrank 30\) is held`
}

// leaks returns with a lock held and no deferred unlock.
func (m *M) leaks() int {
	m.low.Lock()
	return m.n // want `returns with M\.low \(lockrank 10\) held without a deferred unlock`
}

// leaksAtEnd falls off the end of the body still holding a lock.
func (m *M) leaksAtEnd() {
	m.mid.Lock()
	m.n++
} // want `returns with M\.mid \(lockrank 20\) held without a deferred unlock`

// branches is clean: every path unlocks before leaving.
func (m *M) branches(c bool) {
	m.low.Lock()
	if c {
		m.low.Unlock()
		return
	}
	m.low.Unlock()
}

// branchLeak leaks on one branch only.
func (m *M) branchLeak(c bool) int {
	m.low.Lock()
	if c {
		return m.n // want `returns with M\.low \(lockrank 10\) held`
	}
	m.low.Unlock()
	return 0
}

// goroutines do not inherit the creator's held set: the spawned body
// acquiring a lower rank is fine, it runs on its own stack.
func (m *M) goClean(done chan struct{}) {
	m.high.Lock()
	defer m.high.Unlock()
	go func() {
		m.low.Lock()
		m.n++
		m.low.Unlock()
		close(done)
	}()
}

// closureReturns is clean: the inner literal returns while the outer
// frame holds low, but the literal itself acquired nothing.
func (m *M) closureReturns(fs []func() bool) {
	m.low.Lock()
	defer m.low.Unlock()
	for _, f := range fs {
		g := func() bool { return f() }
		if g() {
			m.n++
		}
	}
}

// byValue passes the lock-bearing struct by value.
func byValue(m M) int { // want `parameter of byValue passes M \(contains a sync\.Mutex\) by value`
	return m.n
}

// copies dereferences the receiver into a by-value copy.
func (m *M) copies() int {
	n := *m // want `assignment copies M \(contains a sync\.Mutex\) by value`
	return n.n
}

// NotAMutex carries the annotation on a non-mutex field.
type NotAMutex struct {
	//deltanet:lockrank 40
	counter int // want `//deltanet:lockrank on counter, which is not a sync\.Mutex or sync\.RWMutex`
}

// suppressed demonstrates an annotated escape hatch: the violation is
// real but justified, like monitor.Register locking an unpublished
// invariant.
func (m *M) suppressed() {
	m.high.Lock()
	m.low.Lock() //deltanet:nolint lockorder fixture: proves suppression with a reason works
	m.n++
	m.low.Unlock()
	m.high.Unlock()
}

// Stale keeps a marker whose analyzer is gone: the driver reports it,
// whichever analyzers run, until it is deleted.
//
//deltanet:pointerfree // want `stale marker //deltanet:pointerfree: no analyzer checks it`
type Stale struct{ n int }
