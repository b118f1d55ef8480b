package monitor

// This file is the monitor's replication/replay surface. A read replica
// (or a primary recovering from its journal) re-applies journaled updates
// through the same ApplyWithLoops a live update takes: every non-empty
// delta consumes exactly one update number on either side, so verdicts,
// update counters, and event numbering track the primary's by
// construction. ResumeUpdates carries the counter across a checkpoint
// (and snaps it forward to a record's stamp, should a journal ever run
// ahead of the local count); Reset re-anchors on a fresh checkpoint when
// the journal suffix a replica needs has been rotated away.

import "deltanet/internal/core"

// ResumeUpdates advances the update sequence counter to n, so journal
// records replayed after it apply with the primary's numbering.
// Like ResumeSeq it never rewinds: restoring a checkpoint older than
// what this monitor already applied is a no-op.
func (m *Monitor) ResumeUpdates(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.updSeq.Load() {
		m.updSeq.Store(n)
	}
}

// Reset unregisters every invariant (releasing every subgoal with the
// last of its consumers), drops the event backlog, and rebinds the
// monitor to net — the re-anchor step when a replica's journal cursor
// falls behind a rotation and it must rebuild from a fresh checkpoint.
// Sequence counters are NOT rewound
// (the caller advances them with ResumeSeq/ResumeUpdates from the new
// checkpoint), and the backlog is cleared rather than carried over so a
// watcher resuming across the reset sees an explicit gap and re-anchors
// on a fresh snapshot instead of folding events from two incarnations.
// The whole reset is one write: a concurrent query sees the monitor
// before it or empty, and an Unregister racing it reports false.
func (m *Monitor) Reset(net *core.Network) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, inv := range m.invs {
		m.removeLocked(inv)
	}
	m.net = net
	m.eventMu.Lock()
	m.backlog = nil
	m.backlogHead, m.backlogLen = 0, 0
	m.eventMu.Unlock()
}
