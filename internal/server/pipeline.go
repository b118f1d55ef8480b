package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"deltanet/internal/monitor"
)

// This file is the server half of per-update pipeline tracing. The
// monitor times its own stages (dirty-marking, eval fan-out, event
// publish; see monitor.ApplyTrace) and hands them to the sink installed
// in New; the server stages are timed by the entrance (parse, lock wait)
// and by commitLocked (engine apply + delta loop check), which parks
// them in s.staged for the sink to merge. The merged records land in a
// bounded ring behind the `trace on|off|last <n>` protocol commands,
// feed the per-stage histograms when metrics are enabled, and trip the
// slow-update log when a threshold is set.

// Update verbs, numeric so updateRecord stays pointer-free.
const (
	verbFlush uint8 = iota // burst flush (no single originating command)
	verbInsert
	verbRemove
	verbBatch
)

func verbName(v uint8) string {
	switch v {
	case verbInsert:
		return "I"
	case verbRemove:
		return "R"
	case verbBatch:
		return "B"
	default:
		return "flush"
	}
}

// traceRingCap bounds the trace ring: enough to cover a burst window of
// recent updates without letting diagnostics grow the heap.
const traceRingCap = 256

// updateRecord is one update's (or burst flush's) pipeline trace: which
// update-seq range it covered, the delta and fan-out sizes, and where
// the nanoseconds went, stage by stage. Records are retained by value
// in a fixed ring and must stay free of pointers at any depth so the
// ring adds no GC scan work.
//
//deltanet:pointerfree
type updateRecord struct {
	// Seq is the engine update sequence of the last update covered;
	// First the first (equal outside burst mode).
	Seq   uint64
	First uint64
	// Verb is the originating command (verb* constants).
	Verb uint8
	// HasEval reports whether the record includes an evaluation pass:
	// false for updates merely buffered into a pending burst (their
	// evaluation cost appears later on the flush record).
	HasEval bool
	// Coalesced counts deltas merged into the pass (1 outside burst
	// mode). Links/Added/Removed describe the delta; Dirtied/Evaluated/
	// Skipped/RangeSkipped/Events the evaluation fan-out.
	Coalesced    int
	Links        int
	Added        int
	Removed      int
	Dirtied      int
	Evaluated    int
	Skipped      int
	RangeSkipped int
	Events       int
	// Per-stage wall nanoseconds. Parse/Lock/Apply are zero on flush
	// records; Dirty/Eval/Publish are zero when !HasEval.
	ParseNs   int64
	LockNs    int64
	ApplyNs   int64
	DirtyNs   int64
	EvalNs    int64
	PublishNs int64
	// TotalNs is the sum of the stage times above.
	TotalNs int64
}

// format renders the record as one `trace ...` response line.
func (r updateRecord) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace upd=%d:%d verb=%s coalesced=%d eval=%t links=%d add=%d del=%d dirtied=%d evaluated=%d skipped=%d rskip=%d events=%d",
		r.First, r.Seq, verbName(r.Verb), r.Coalesced, r.HasEval,
		r.Links, r.Added, r.Removed, r.Dirtied, r.Evaluated, r.Skipped,
		r.RangeSkipped, r.Events)
	fmt.Fprintf(&b, " parse_ns=%d lock_ns=%d apply_ns=%d dirty_ns=%d eval_ns=%d publish_ns=%d total_ns=%d",
		r.ParseNs, r.LockNs, r.ApplyNs, r.DirtyNs, r.EvalNs, r.PublishNs, r.TotalNs)
	return b.String()
}

// tracer is the bounded per-update trace ring plus the slow-update
// logging state. Recording is on by default (the ring is cheap); the
// `trace off` command stops retention without disturbing slow-update
// logging.
type tracer struct {
	// mu guards everything below. It ranks between flushMu and
	// connWriter.mu: records are taken while the engine lock is held
	// (the sink runs inside ApplyWithLoops), responses are formatted under the
	// read lock, and nothing below ever writes to a connection.
	//
	//deltanet:lockrank 35
	mu        sync.Mutex
	off       bool // zero value = tracing on
	ring      [traceRingCap]updateRecord
	next      int // ring write position
	n         int // valid records (≤ traceRingCap)
	slowNs    int64
	slowLog   io.Writer
	slowCount uint64
}

// record retains rec (when tracing is on) and emits the slow-update log
// line (when a threshold is configured and exceeded). The log write
// happens outside the lock: the sink path holds the engine lock, and a
// slow log target must not extend that critical section.
func (t *tracer) record(rec updateRecord) {
	t.mu.Lock()
	if !t.off {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % traceRingCap
		if t.n < traceRingCap {
			t.n++
		}
	}
	slow := t.slowNs > 0 && rec.TotalNs >= t.slowNs
	var logw io.Writer
	if slow {
		t.slowCount++
		logw = t.slowLog
	}
	t.mu.Unlock()
	if slow && logw != nil {
		fmt.Fprintf(logw, "deltanet: slow update: %s\n", rec.format())
	}
}

// setOn toggles retention; turning tracing off clears the ring so `trace
// last` cannot resurface stale records as if they were recent.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.off = !on
	if !on {
		t.next, t.n = 0, 0
	}
}

// last returns up to n retained records, oldest first.
func (t *tracer) last(n int) []updateRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.n {
		n = t.n
	}
	if n <= 0 {
		return nil
	}
	out := make([]updateRecord, 0, n)
	for i := t.next - n; i < t.next; i++ {
		out = append(out, t.ring[(i+traceRingCap)%traceRingCap])
	}
	return out
}

// slows returns the slow-update count (for /metrics).
func (t *tracer) slows() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slowCount
}

// setSlowUpdate configures the slow-update log: updates whose summed
// pipeline stages exceed threshold are counted and logged to w (nil w
// counts without logging; threshold ≤ 0 disables both). Applied by
// WithSlowUpdate at construction.
func (s *Server) setSlowUpdate(threshold time.Duration, w io.Writer) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.slowNs = threshold.Nanoseconds()
	s.tr.slowLog = w
}

// stageInfo parks the server-side stage timings of the mutation
// currently holding the write lock, for the monitor sink to merge into
// its ApplyTrace. Guarded by s.mu: it is written only under the write
// lock and always cleared before that lock is released, so the
// read-locked flush paths only ever observe it invalid.
type stageInfo struct {
	valid   bool
	verb    uint8
	parseNs int64
	lockNs  int64
	applyNs int64
}

// onApplyTrace is the monitor trace sink (installed in New): it merges
// the monitor's stage times with the staged server-side times of the
// originating mutation, retains the record, and feeds the stage
// histograms. It runs under the monitor's apply lock with s.mu held in
// some mode by the caller (write for mutations, read for flushes).
func (s *Server) onApplyTrace(at monitor.ApplyTrace) {
	rec := updateRecord{
		Seq:          at.LastUpdate,
		First:        at.FirstUpdate,
		Verb:         verbFlush,
		HasEval:      true,
		Coalesced:    at.Coalesced,
		Links:        at.Links,
		Added:        at.Added,
		Removed:      at.Removed,
		Dirtied:      at.Dirtied,
		Evaluated:    at.Evaluated,
		Skipped:      at.Skipped,
		RangeSkipped: at.RangeSkipped,
		Events:       at.Events,
		DirtyNs:      at.DirtyNs,
		EvalNs:       at.EvalNs,
		PublishNs:    at.PublishNs,
	}
	if s.staged.valid {
		rec.Verb = s.staged.verb
		rec.ParseNs = s.staged.parseNs
		rec.LockNs = s.staged.lockNs
		rec.ApplyNs = s.staged.applyNs
		s.staged = stageInfo{}
	}
	rec.TotalNs = rec.ParseNs + rec.LockNs + rec.ApplyNs + rec.DirtyNs + rec.EvalNs + rec.PublishNs
	s.tr.record(rec)
	s.observeStages(rec)
}

// finishUpdateLocked closes out a commit's tracing after its monitor
// pass returned: when the staged stage times were not consumed by the
// sink (the delta was buffered into a pending burst, or no invariants
// are registered), the engine-side stages still get a record of their
// own. Called by commitLocked, under the write lock with s.staged set.
func (s *Server) finishUpdateLocked() {
	if !s.staged.valid {
		return
	}
	st := s.staged
	s.staged = stageInfo{}
	seq := s.mon.UpdateSeq()
	rec := updateRecord{
		Seq:     seq,
		First:   seq,
		Verb:    st.verb,
		ParseNs: st.parseNs,
		LockNs:  st.lockNs,
		ApplyNs: st.applyNs,
		TotalNs: st.parseNs + st.lockNs + st.applyNs,
	}
	s.tr.record(rec)
	s.observeStages(rec)
}

// traceResponse handles the `trace` protocol command. Caller holds the
// read lock (the tracer has its own mutex; the engine is not touched).
func (s *Server) traceResponse(fields []string) string {
	const usage = "err usage: trace on | trace off | trace last <n>"
	if len(fields) < 2 {
		return usage
	}
	switch fields[1] {
	case "on":
		if len(fields) != 2 {
			return usage
		}
		s.tr.setOn(true)
		return fmt.Sprintf("ok trace on cap=%d", traceRingCap)
	case "off":
		if len(fields) != 2 {
			return usage
		}
		s.tr.setOn(false)
		return "ok trace off"
	case "last":
		if len(fields) != 3 {
			return usage
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return "err trace last wants a positive count"
		}
		recs := s.tr.last(n)
		var b strings.Builder
		fmt.Fprintf(&b, "ok trace n=%d", len(recs))
		for _, r := range recs {
			b.WriteByte('\n')
			b.WriteString(r.format())
		}
		return b.String()
	default:
		return usage
	}
}
