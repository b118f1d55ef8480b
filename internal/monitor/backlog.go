package monitor

// This file is the monitor's event backlog: a bounded ring of the most
// recently published events, keyed by their monotonically increasing
// Event.Seq. A subscriber that disconnected (or fell behind and had
// channel events dropped) asks EventsSince(lastSeenSeq) for the suffix
// it missed; when churn has pushed that suffix off the ring, the reply
// says exactly which sequence range is gone, so the caller knows its
// cached verdict state is stale and can re-anchor on a fresh snapshot
// (Invariants) instead of silently diverging.

// DefaultBacklog is the event-backlog capacity a new monitor retains
// for replay; SetBacklog adjusts it.
const DefaultBacklog = 1024

// SetBacklog resizes the event backlog to retain the last n published
// events (n ≤ 0 disables retention: every EventsSince for a missed
// suffix then reports a gap). The newest min(n, retained) events
// survive a resize.
func (m *Monitor) SetBacklog(n int) {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	if n < 0 {
		n = 0
	}
	old := make([]Event, 0, m.backlogLen)
	for i := 0; i < m.backlogLen; i++ {
		old = append(old, m.backlog[(m.backlogHead+i)%len(m.backlog)])
	}
	if keep := len(old) - n; keep > 0 {
		old = old[keep:]
	}
	m.backlogCap = n
	m.backlogHead = 0
	m.backlogLen = len(old)
	if n == 0 {
		m.backlog = nil
		return
	}
	m.backlog = make([]Event, n)
	copy(m.backlog, old)
}

// Backlog returns the backlog capacity.
func (m *Monitor) Backlog() int {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	return m.backlogCap
}

// backlogAppendLocked retains one published event. Caller holds
// eventMu.
func (m *Monitor) backlogAppendLocked(ev Event) {
	if m.backlogCap <= 0 {
		return
	}
	if len(m.backlog) != m.backlogCap {
		// Lazily allocated so monitors nobody replays from pay nothing.
		m.backlog = make([]Event, m.backlogCap)
		m.backlogHead, m.backlogLen = 0, 0
	}
	if m.backlogLen < m.backlogCap {
		m.backlog[(m.backlogHead+m.backlogLen)%m.backlogCap] = ev
		m.backlogLen++
		return
	}
	m.backlog[m.backlogHead] = ev
	m.backlogHead = (m.backlogHead + 1) % m.backlogCap
}

// Replay is EventsSince's answer: the retained suffix plus an explicit
// account of what could not be replayed.
type Replay struct {
	// Events are the retained events with Seq > the requested cursor, in
	// sequence order.
	Events []Event
	// LostFrom/LostTo, when LostFrom > 0, is the inclusive range of
	// sequence numbers the backlog cannot replay: either churn pushed
	// them off the ring, or the cursor is ahead of the stream entirely
	// (a previous monitor incarnation's cursor, e.g. a watcher resuming
	// against a server restarted from a state file — whose verdict
	// stream restarts at 1). Either way the caller's cached verdict
	// state is stale and must re-anchor on a fresh Invariants snapshot.
	LostFrom, LostTo uint64
	// Head is the newest published sequence number at replay time: the
	// resume cursor for a caller that consumes this replay (plus the
	// snapshot, when loss forced a re-anchor).
	Head uint64
}

// EventsSince answers "what did I miss after seq": the retained suffix
// of the event backlog, with truncation (or a cursor from another
// incarnation) reported explicitly rather than as silence. See Replay.
func (m *Monitor) EventsSince(seq uint64) Replay {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	r := Replay{Head: m.seq}
	if seq > m.seq {
		// Cursor ahead of the stream: nothing the caller saw exists here.
		r.LostFrom, r.LostTo = m.seq+1, seq
		return r
	}
	if m.seq == seq {
		return r
	}
	if m.backlogLen == 0 {
		r.LostFrom, r.LostTo = seq+1, m.seq
		return r
	}
	if oldest := m.backlog[m.backlogHead].Seq; oldest > seq+1 {
		r.LostFrom, r.LostTo = seq+1, oldest-1
	}
	for i := 0; i < m.backlogLen; i++ {
		ev := m.backlog[(m.backlogHead+i)%m.backlogCap]
		if ev.Seq > seq {
			r.Events = append(r.Events, ev)
		}
	}
	return r
}

// LastSeq returns the sequence number of the most recently published
// event (0 before any event).
func (m *Monitor) LastSeq() uint64 {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	return m.seq
}

// ResumeSeq advances the event sequence counter to seq, so the next
// published event is numbered seq+1. It is the cross-restart continuity
// hook: a monitor restored from a state file that recorded the previous
// incarnation's LastSeq resumes numbering where that incarnation
// stopped, and a watcher resuming with an old cursor sees a gap covering
// only the genuinely missed window instead of a whole foreign stream.
// Rewinding is refused (the counter must stay monotonic for cursors to
// mean anything), so calling it on a monitor that already published past
// seq is a no-op.
func (m *Monitor) ResumeSeq(seq uint64) {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	if seq > m.seq {
		m.seq = seq
	}
}

// SnapshotSpecs returns the canonical serialized form (FormatSpec) of
// every registered invariant, in registration order — the durable half
// of a monitor snapshot. Each distinct spec appears once regardless of
// its refcount; re-registering the lines with RestoreSpecs (or
// ParseSpec + Register) on a monitor over an equivalent network
// reproduces the same standing queries with freshly evaluated verdicts.
func (m *Monitor) SnapshotSpecs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	invs := m.sortedByIDLocked()
	out := make([]string, len(invs))
	for i, inv := range invs {
		out[i] = inv.key // specKey == FormatSpec
	}
	return out
}

// RestoreSpecs parses and registers each serialized spec (the
// SnapshotSpecs format), evaluating every invariant against the live
// network. On a parse error nothing further is registered and the
// error is returned; already-registered specs stay registered.
func (m *Monitor) RestoreSpecs(specs []string) error {
	for _, line := range specs {
		s, err := ParseSpec(line)
		if err != nil {
			return err
		}
		m.Register(s)
	}
	return nil
}
