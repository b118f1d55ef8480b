package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"deltanet/internal/monitor"
)

// This file is the server half of per-update pipeline tracing. The
// monitor times its own stages (dirty-marking, eval fan-out, event
// publish; see monitor.ApplyTrace) and hands them to the sink installed
// in New; the server stages are timed by the entrance (parse), the
// writer (lock wait) and commitLocked (engine apply + delta loop
// check), which parks them in s.staged for the sink to merge. The merged
// records land in a bounded ring behind the `trace on|off|last <n>`
// protocol commands, feed the per-stage histograms when metrics are
// enabled, and trip the slow-update log when a threshold is set.

// Update verbs, numeric so updateRecord stays pointer-free.
const (
	verbInsert uint8 = iota
	verbRemove
	verbBatch
)

func verbName(v uint8) string {
	switch v {
	case verbInsert:
		return "I"
	case verbRemove:
		return "R"
	default:
		return "B"
	}
}

// traceRingCap bounds the trace ring: enough to cover a window of recent
// updates without letting diagnostics grow the heap.
const traceRingCap = 256

// updateRecord is one update's pipeline trace: which update it was, the
// delta and fan-out sizes, and where the nanoseconds went, stage by
// stage. Records are retained by value in a fixed ring and must stay
// free of pointers at any depth so the ring adds no GC scan work.
type updateRecord struct {
	// Seq is the engine update sequence number of the update.
	Seq uint64
	// Verb is the originating command (verb* constants).
	Verb uint8
	// HasEval reports whether the record includes an evaluation pass:
	// false when the update ran none (no invariants registered, or an
	// empty delta).
	HasEval bool
	// Links/Added/Removed describe the delta; Dirtied/Evaluated/
	// Skipped/RangeSkipped/Events the evaluation fan-out.
	Links        int
	Added        int
	Removed      int
	Dirtied      int
	Evaluated    int
	Skipped      int
	RangeSkipped int
	Events       int
	// Per-stage wall nanoseconds. Dirty/Eval/Publish are zero when
	// !HasEval.
	ParseNs   int64
	LockNs    int64
	ApplyNs   int64
	DirtyNs   int64
	EvalNs    int64
	PublishNs int64
	// TotalNs is the sum of the stage times above.
	TotalNs int64
}

// format renders the record as one `trace ...` response line. upd= keeps
// the <first>:<last> shape event lines use; a record is one update.
func (r updateRecord) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace upd=%d:%d verb=%s eval=%t links=%d add=%d del=%d dirtied=%d evaluated=%d skipped=%d rskip=%d events=%d",
		r.Seq, r.Seq, verbName(r.Verb), r.HasEval,
		r.Links, r.Added, r.Removed, r.Dirtied, r.Evaluated, r.Skipped,
		r.RangeSkipped, r.Events)
	fmt.Fprintf(&b, " parse_ns=%d lock_ns=%d apply_ns=%d dirty_ns=%d eval_ns=%d publish_ns=%d total_ns=%d",
		r.ParseNs, r.LockNs, r.ApplyNs, r.DirtyNs, r.EvalNs, r.PublishNs, r.TotalNs)
	return b.String()
}

// tracer is the bounded per-update trace ring plus the slow-update
// logging state. Recording is on by default (the ring is cheap); the
// `trace off` command stops retention without disturbing slow-update
// logging. The writer records under the write lock and runs `trace
// on|off` as a barrier; `trace last` and /statusz read under the read
// lock. slowNs and slowLog are set in New, then read-only.
type tracer struct {
	off       bool // zero value = tracing on
	ring      [traceRingCap]updateRecord
	next      int // ring write position
	n         int // valid records (≤ traceRingCap)
	slowNs    int64
	slowLog   io.Writer
	slowCount atomic.Uint64 // read by metric scrapes, which take no lock
}

// record retains rec (when tracing is on) and emits the slow-update log
// line (when a threshold is configured and exceeded).
func (t *tracer) record(rec updateRecord) {
	if !t.off {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % traceRingCap
		if t.n < traceRingCap {
			t.n++
		}
	}
	if t.slowNs > 0 && rec.TotalNs >= t.slowNs {
		t.slowCount.Add(1)
		if t.slowLog != nil {
			fmt.Fprintf(t.slowLog, "deltanet: slow update: %s\n", rec.format())
		}
	}
}

// setOn toggles retention; turning tracing off clears the ring so `trace
// last` cannot resurface stale records as if they were recent.
func (t *tracer) setOn(on bool) {
	t.off = !on
	if !on {
		t.next, t.n = 0, 0
	}
}

// last returns up to n retained records, oldest first.
func (t *tracer) last(n int) []updateRecord {
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

// stageInfo parks the server-side stage timings of the mutation
// currently holding the write lock, for the monitor sink to merge into
// its ApplyTrace. Guarded by s.mu: it is written only under the write
// lock and always cleared before that lock is released.
type stageInfo struct {
	valid   bool
	verb    uint8
	parseNs int64
	lockNs  int64
	applyNs int64
}

// onApplyTrace is the monitor trace sink (installed in New): it merges
// the monitor's stage times with the staged server-side times of the
// commit that drove the pass, retains the record, and feeds the stage
// histograms. It runs inside commitLocked's ApplyWithLoops call — the
// only one the server makes — on the writer goroutine, so s.mu is
// write-held and s.staged is set.
func (s *Server) onApplyTrace(at monitor.ApplyTrace) {
	st := s.staged
	s.staged = stageInfo{}
	rec := updateRecord{
		Seq:          at.Update,
		Verb:         st.verb,
		HasEval:      true,
		Links:        at.Links,
		Added:        at.Added,
		Removed:      at.Removed,
		Dirtied:      at.Dirtied,
		Evaluated:    at.Evaluated,
		Skipped:      at.Skipped,
		RangeSkipped: at.RangeSkipped,
		Events:       at.Events,
		ParseNs:      st.parseNs,
		LockNs:       st.lockNs,
		ApplyNs:      st.applyNs,
		DirtyNs:      at.DirtyNs,
		EvalNs:       at.EvalNs,
		PublishNs:    at.PublishNs,
	}
	rec.TotalNs = rec.ParseNs + rec.LockNs + rec.ApplyNs + rec.DirtyNs + rec.EvalNs + rec.PublishNs
	s.tr.record(rec)
	s.observeStages(rec)
}

// finishUpdateLocked closes out a commit's tracing after its monitor
// pass returned: when the staged stage times were not consumed by the
// sink (no invariants are registered, or the delta was empty), the
// engine-side stages still get a record of their own. Called by
// commitLocked, under the write lock with s.staged set.
func (s *Server) finishUpdateLocked() {
	if !s.staged.valid {
		return
	}
	st := s.staged
	s.staged = stageInfo{}
	rec := updateRecord{
		Seq:     s.mon.UpdateSeq(),
		Verb:    st.verb,
		ParseNs: st.parseNs,
		LockNs:  st.lockNs,
		ApplyNs: st.applyNs,
		TotalNs: st.parseNs + st.lockNs + st.applyNs,
	}
	s.tr.record(rec)
	s.observeStages(rec)
}

// traceResponse handles the `trace` protocol command: on and off are
// barriers on the writer, last reads under the read lock.
func (s *Server) traceResponse(fields []string) string {
	const usage = "err usage: trace on | trace off | trace last <n>"
	if len(fields) < 2 {
		return usage
	}
	switch fields[1] {
	case "on", "off":
		if len(fields) != 2 {
			return usage
		}
		on := fields[1] == "on"
		if !s.barrier(func() { s.tr.setOn(on) }) {
			return "err " + errClosing.Error()
		}
		if on {
			return fmt.Sprintf("ok trace on cap=%d", traceRingCap)
		}
		return "ok trace off"
	case "last":
		if len(fields) != 3 {
			return usage
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return "err trace last wants a positive count"
		}
		s.mu.RLock()
		recs := s.tr.last(n)
		s.mu.RUnlock()
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
