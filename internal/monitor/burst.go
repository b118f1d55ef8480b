package monitor

import (
	"time"

	"deltanet/internal/core"
)

// BurstConfig configures coalescing burst mode: under churn the monitor
// merges consecutive deltas (core.Delta.Merge) and re-evaluates each
// dirty subgoal once per burst instead of once per update, trading
// event latency for throughput.
//
// A burst is flushed — its coalesced delta evaluated and the resulting
// events published — when either trigger fires:
//
//   - MaxDeltas ≥ 2: the burst has coalesced that many deltas, checked as
//     each one arrives;
//   - MaxAge > 0: an ApplyWithLoops (or an explicit Flush, e.g. from a
//     periodic ticker) finds the oldest pending delta at least that old.
//
// The age trigger is evaluated inside monitor calls only — the monitor
// never reads the network from a background goroutine, preserving the
// caller's network-stability contract — so callers wanting a hard latency
// bound should call Flush on a timer of their own (the server's burst
// knob does exactly this).
//
// The zero value disables bursting: every update evaluates immediately.
type BurstConfig struct {
	MaxDeltas int
	MaxAge    time.Duration
}

func (c BurstConfig) enabled() bool { return c.MaxDeltas >= 2 || c.MaxAge > 0 }

// SetBurst installs a burst configuration (the zero value disables
// bursting). Disabling or tightening the configuration does not evaluate
// an already pending burst immediately: call Flush for that, or let the
// next update absorb it (after a disable, ApplyWithLoops merges any
// leftover buffered deltas into its own evaluation rather than ignore
// them).
func (m *Monitor) SetBurst(cfg BurstConfig) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.burst = cfg
}

// Burst returns the current burst configuration.
func (m *Monitor) Burst() BurstConfig {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return m.burst
}

// Pending returns the number of deltas coalesced into the currently
// pending burst (0 when none, or when bursting is disabled).
func (m *Monitor) Pending() int {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return m.pendingCount
}

// Flush evaluates the pending burst immediately, returning (and
// publishing) the verdict transitions it causes. It is a no-op returning
// nil when nothing is pending. Like ApplyWithLoops, Flush reads the
// network: the caller must guarantee it is not mutated during the call.
func (m *Monitor) Flush() []Event {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return m.flushLocked()
}

// coalesceLocked merges one update's delta into the pending burst.
// Caller holds applyMu.
func (m *Monitor) coalesceLocked(d *core.Delta) {
	if m.pendingCount == 0 {
		m.pendingFirst = m.updSeq
		m.pendingSince = time.Now()
	}
	m.pending.Merge(d)
	changedLinks(d, m.pendingChanged)
	m.pendingCount++
	m.coalesced.Add(1)
}

// shouldFlushLocked reports whether a flush trigger has fired. Caller
// holds applyMu.
func (m *Monitor) shouldFlushLocked() bool {
	if m.pendingCount == 0 {
		return false
	}
	if m.burst.MaxDeltas >= 2 && m.pendingCount >= m.burst.MaxDeltas {
		return true
	}
	return m.burst.MaxAge > 0 && time.Since(m.pendingSince) >= m.burst.MaxAge
}

// flushLocked evaluates the coalesced pending delta. Caller holds
// applyMu.
func (m *Monitor) flushLocked() []Event {
	if m.pendingCount == 0 {
		return nil
	}
	first, last := m.pendingFirst, m.updSeq
	m.bursts.Add(1)
	var events []Event
	if m.regd.Load() > 0 {
		// Loop hints from the individual updates are stale for the merged
		// window; a LoopFree invariant re-derives loops from the coalesced
		// delta (loopsKnown=false), which is complete by the §4.3.1
		// argument applied to the merged delta, as in the batch pipeline.
		events = m.deltaPassLocked(m.pendingChanged, &applyCtx{d: &m.pending, rescans: &m.loopRescans}, first, last, m.pendingCount)
	}
	m.resetPendingLocked()
	return events
}

// resetPendingLocked clears the burst buffer, retaining capacity. Caller
// holds applyMu.
func (m *Monitor) resetPendingLocked() {
	m.pending.NewAtoms = m.pending.NewAtoms[:0]
	m.pending.Added = m.pending.Added[:0]
	m.pending.Removed = m.pending.Removed[:0]
	m.pendingChanged.Clear()
	m.pendingCount = 0
}
