package monitor

// ApplyTrace is the monitor-side record of one delta-driven evaluation
// pass: which update it covered, how big the delta was, and where its
// nanoseconds went (dirty-marking, evaluation fan-out, event publish).
// The server merges it with its own stage timings
// (parse, lock wait, engine apply) into the per-update trace ring behind
// the `trace` protocol command and the pipeline-stage histograms.
//
// It is passed by value and must stay free of pointers at any depth so
// retaining rings of traces adds no GC scan work.
//
//deltanet:pointerfree
type ApplyTrace struct {
	// Update is the update sequence number whose delta drove this pass.
	Update uint64
	// Links is the number of links with label changes; Added and Removed
	// are the delta's label-change counts.
	Links   int
	Added   int
	Removed int
	// These four count fixpoints — subgoals (one per (source, avoided
	// node) pair, however many invariants read it) and global invariants —
	// not invariants: Dirtied is how many the pass picked to re-run;
	// Evaluated how many ran (every one picked); Skipped and RangeSkipped
	// how many the dependency index and the atom-range refinement spared,
	// respectively.
	Dirtied      int
	Evaluated    int
	Skipped      int
	RangeSkipped int
	// Events is the number of verdict transitions the pass emitted.
	Events int
	// Per-stage wall time in nanoseconds: dirty-marking (index walk +
	// structural dirty tests), evaluation fan-out (RunSharded +
	// re-indexing + every consumer re-reading its verdict), and event
	// build + publish under eventMu.
	DirtyNs   int64
	EvalNs    int64
	PublishNs int64
}

// SetTraceSink installs fn to receive an ApplyTrace after every
// delta-driven evaluation pass (ApplyWithLoops; RecheckAll is an audit,
// not an update, and is not traced). fn runs synchronously under the
// write side of the monitor's lock, so it must be fast and must not
// call back into the monitor; nil uninstalls. With no sink installed
// the monitor takes no timestamps — tracing costs nothing when off.
func (m *Monitor) SetTraceSink(fn func(ApplyTrace)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.traceSink = fn
}

// UpdateSeq returns the engine update sequence number of the most
// recently consumed delta (0 before any).
func (m *Monitor) UpdateSeq() uint64 { return m.updSeq.Load() }

// NumSubscribers returns the current number of event subscriptions.
func (m *Monitor) NumSubscribers() int {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	return len(m.subs)
}

// BacklogLen returns the number of events currently retained in the
// replay backlog ring (≤ Backlog()).
func (m *Monitor) BacklogLen() int {
	m.eventMu.Lock()
	defer m.eventMu.Unlock()
	return m.backlogLen
}
