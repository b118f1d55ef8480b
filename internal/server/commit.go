package server

import (
	"errors"
	"strconv"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/check"
	"deltanet/internal/core"
)

// commitLocked is the write path's one sequential core: every rule update
// — a line I or R, a B batch, a coalesced ring run and each op of its
// refused-run retry, a record replayed after a crash or streamed to a
// replica — is applied here and nowhere else, by the writer (ingest.go);
// the entrances only obtain ops, hand them over and shape a reply. It
// is the paper's contract: apply the insertions and removals as one
// atomic update (Algorithms 1 and 2), check the resulting delta-graph
// for loops, and return the loops the update closed. On error nothing
// was applied.
//
// st carries the stage times measured before the commit (parse, lock
// wait); the verb and the apply time are filled in here. The commit is
// sequential: ApplyBatch and the delta loop check run on the writer's
// goroutine, and only the monitor's evaluation pass fans out.
// fromJournal marks a record that came from a journal, which is not
// appended to one again.
//
// The journal failure policy: a record the journal does not take (its
// append or its flush fails) does not fail the commit. The update is
// applied and answered ok, the record is counted (jrnlErrs,
// dn_journal_append_errors_total) and never sent to a journal stream,
// and End stays at the last record the file holds. The journal's error
// is sticky: durability and replication stop, verification does not.
func (s *Server) commitLocked(ops []core.BatchOp, st stageInfo, fromJournal bool) ([]check.Loop, error) {
	t0 := time.Now()
	if msg := s.checkOps(ops); msg != "" {
		return nil, errors.New(msg)
	}
	st.verb = verbBatch
	if len(ops) == 1 {
		st.verb = verbRemove
		if ops[0].Insert {
			st.verb = verbInsert
		}
	}
	if err := s.net.ApplyBatch(ops, &s.delta, 0); err != nil {
		return nil, err
	}
	loops := check.FindLoopsDelta(s.net, &s.delta)
	st.valid, st.applyNs = true, time.Since(t0).Nanoseconds()
	s.staged = st
	s.mon.ApplyWithLoops(&s.delta, loops, true)
	s.finishUpdateLocked()
	if !fromJournal && s.jrnl != nil { // no encoding at all on the journal-less hot path
		s.journalAppendLocked(binproto.AppendOps(s.jbuf[:0], ops))
	}
	return loops, nil
}

// checkOps is the one validator every entrance shares: "" admits ops, else
// the message names the first bad op. It reads only the graph's atomic
// size counters, so entrances run it without the engine lock: a
// primary's graph only grows, and commitLocked checks again under the
// write lock. (A replica replaces its graph, but refuses mutations first.)
func (s *Server) checkOps(ops []core.BatchOp) string {
	nodes, links := s.graph.NumNodes(), s.graph.NumLinks()
	for i := range ops {
		if msg := checkOp(&ops[i], nodes, links); msg != "" {
			return "frame op " + strconv.Itoa(i) + ": " + msg
		}
	}
	return ""
}

// checkOp holds one op to what the engine and the journal can take, in a
// graph of the given size: an insert's topology references must exist,
// and ids and priorities must be ones a dnbin record carries
// (non-negative) — an update the journal cannot represent must not be
// applied. A removal names only a rule; whether that rule exists is the
// engine's to say.
func checkOp(op *core.BatchOp, nodes, links int) string {
	r := &op.Rule
	switch {
	case r.ID < 0 || r.Priority < 0:
		return "rule id or priority out of range"
	case !op.Insert:
		return ""
	case r.Source < 0 || int(r.Source) >= nodes:
		return "unknown node id"
	case r.Link < -1 || int(r.Link) >= links:
		return "unknown link id"
	}
	return ""
}
