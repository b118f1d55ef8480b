package server

// This file is the server's one writer. Every mutation reaches the
// engine through a bounded lock-free MPSC ring (internal/ingest) drained
// by one goroutine, coalesce: the only code that takes the engine lock
// for writing, so updates apply one at a time in ring order — the
// paper's sequential core, fed by the connections.
//
// A bare op (a binary frame's, or IngestOps') coalesces: the writer
// drains the ops waiting into one run (up to maxIngestBatch), cut early
// when the next op's dirty-invariant footprint is disjoint from the
// run's (≈ 1 % fewer subgoal evaluations on watch_churn), and commits
// it as one update. Anything else is a unit that runs alone, after the
// run before it, while its producer waits: a line I, R or B, a record a
// replica streams, or a barrier (node, link, sync, IngestBarrier, trace
// on|off, LoadState, crash replay, a replica's re-anchor). Units are
// never merged, so line replies and update numbers are what they were
// when each entrance took the lock itself.
//
// Producers parse and validate off-lock (checkOps reads only atomic
// counters). Memory stays bounded: a binary connection that finds the
// ring full says "busy depth=<n>" once per frame and blocks in Push, a
// unit producer past the last free slot blocks too, and a sync frame
// answers "ok sync <token> applied=<n>" once everything before it has
// been applied.

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/bitset"
	"deltanet/internal/core"
	"deltanet/internal/ingest"
	"deltanet/internal/netgraph"
)

const (
	// defaultIngestRing is the ring capacity when WithIngestRing is not
	// given: deep enough to ride out an apply pause at high rates, small
	// enough that worst-case buffered memory stays a few hundred KB.
	defaultIngestRing = 4096

	// maxIngestBatch bounds one coalesced ApplyBatch so a firehose
	// cannot grow unbounded batches (and their journal records). Bulk
	// load (BenchmarkIngestBulkLoad, 2 vCPU) is flat past it: ≈ 475
	// ns/rule at 256, ≈ 440 at 1024, ≈ 445 at 4096 (runs 4× larger).
	maxIngestBatch = 1024

	// unitSlots bounds the units in the ring, and so the producers
	// waiting on one; the next blocks until a slot is free. 3 KB, where a
	// slot per ring entry would be 48 KB (3.5 % of watch_churn's mem_mb).
	unitSlots = 256
)

// errClosing answers a mutation that reached the server after Close
// began and was not applied.
var errClosing = errors.New("server closing")

// ingestState is the Server's writer half: the ring, the units its
// entries name, and the counters the stats line and metrics export.
type ingestState struct {
	ring *ingest.Ring

	// units holds each unit in the ring at its entry's Unit-1; free
	// holds the slots no producer holds.
	units [unitSlots]*unit
	free  chan uint32

	// applied counts the ring's ops the writer has committed or rejected
	// (sync frames and IngestBarrier report it). Only the writer touches
	// it; barriers run on the writer.
	applied uint64

	frames   atomic.Uint64 // binary frames decoded
	ops      atomic.Uint64 // ops accepted into the ring
	busy     atomic.Uint64 // busy lines written (ring-full events)
	batches  atomic.Uint64 // coalesced runs committed
	adaptive atomic.Uint64 // runs cut early by the disjoint-deps trigger
	rejected atomic.Uint64 // ops dropped by a refused run's per-op retry (bad ids, duplicates)
}

// unit is a ring entry that runs on its own (see the file comment).
type unit struct {
	ops []core.BatchOp // committed as one update
	fn  func()         // a barrier: run in place of a commit
	st  stageInfo      // stage times measured before the writer took it

	run    bool   // the writer's coalesced run: retried op by op when refused
	record bool   // a journal record's ops: not journaled again
	head   string // a line update's reply head ("ok", "ok batch n=<n>")

	reply string // head plus the atom count and loops, rendered under the lock
	err   error
	done  chan struct{} // receives once the unit has run
}

// unitPool recycles units, done channel and op buffer included.
var unitPool = sync.Pool{New: func() any { return &unit{done: make(chan struct{}, 1)} }}

// putUnit recycles u once its submit has returned; an op buffer grown
// past one run is dropped.
func putUnit(u *unit) {
	if cap(u.ops) > maxIngestBatch {
		u.ops = nil
	}
	*u = unit{ops: u.ops[:0], done: u.done}
	unitPool.Put(u)
}

// startWriter starts the writer on a ring of the given capacity (≤ 0:
// defaultIngestRing). Close closes the ring, and the writer exits once it
// has drained it.
func (s *Server) startWriter(capacity int) {
	if capacity <= 0 {
		capacity = defaultIngestRing
	}
	st := &s.ing
	st.ring = ingest.New(capacity)
	st.free = make(chan uint32, unitSlots)
	for h := uint32(0); h < unitSlots; h++ {
		st.free <- h
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.coalesce(st.ring)
	}()
}

// submit hands u to the writer and waits until it has run; false means
// the server is closing and u did not run. The writer pops every entry
// Push accepted, even from a closed ring, so every slot comes back.
func (s *Server) submit(u *unit) bool {
	st := &s.ing
	h := <-st.free
	st.units[h] = u
	ran := st.ring.Push(ingest.Entry{Unit: h + 1})
	if ran {
		<-u.done
	}
	st.free <- h
	return ran
}

// barrier runs fn on the writer, under the engine lock, after every
// mutation pushed before it; false means the server is closing and fn
// did not run.
func (s *Server) barrier(fn func()) bool {
	u := unitPool.Get().(*unit)
	defer putUnit(u)
	u.fn = fn
	return s.submit(u)
}

// update commits ops as one update and renders the line reply: head,
// the atom count and the loops the update closed — or the error.
func (s *Server) update(ops []core.BatchOp, head string, parseNs int64) string {
	u := unitPool.Get().(*unit)
	defer putUnit(u)
	u.ops = append(u.ops, ops...)
	u.head, u.st = head, stageInfo{parseNs: parseNs}
	switch {
	case !s.submit(u):
		return "err " + errClosing.Error()
	case u.err != nil:
		return "err " + u.err.Error()
	}
	return u.reply
}

// serveBinary owns a connection after its "dnbin" handshake line. A
// non-empty return is a refusal response and the line loop continues; ""
// means the connection was consumed by the binary loop (or died).
func (s *Server) serveBinary(fields []string, lr *lineReader, cw *connWriter) string {
	if len(fields) != 2 || fields[1] != strconv.Itoa(binproto.Version) {
		return fmt.Sprintf("err usage: dnbin %d", binproto.Version)
	}
	if s.replicaOf != "" {
		return errReadOnly
	}
	st, ring := &s.ing, s.ing.ring
	if err := cw.writeLine(fmt.Sprintf("ok dnbin %d", binproto.Version)); err != nil {
		return ""
	}
	// The frame decoder reads the lineReader's underlying buffered
	// reader, so frames the client pipelined behind the handshake line
	// are already waiting for it.
	fr := binproto.NewReader(lr.br)
	for {
		frame, err := fr.Read()
		if err != nil {
			if err != io.EOF {
				s.scanErrs.Add(1)
				werr := cw.writeLine("err binary stream: " + err.Error() + " (closing connection)")
				_ = werr // stream is unrecoverable either way; the close is the remedy
			}
			return ""
		}
		st.frames.Add(1)
		switch frame.Kind {
		case binproto.KindOps:
		case binproto.KindSync:
			// A barrier: everything pushed before it, this connection's
			// frames included, has been applied when it runs.
			var applied uint64
			resp := "err " + errClosing.Error()
			if s.barrier(func() { applied = st.applied }) {
				resp = fmt.Sprintf("ok sync %d applied=%d", frame.Token, applied)
			}
			if err := cw.writeLine(resp); err != nil {
				return ""
			}
			continue
		default:
			// Topology kinds are journal records; live topology changes
			// take the line protocol, which orders them against updates.
			if err := cw.writeLine(fmt.Sprintf("err frame kind %d not accepted on a client stream", frame.Kind)); err != nil {
				return ""
			}
			continue
		}
		if msg := s.checkOps(frame.Ops); msg != "" {
			// Drop the whole frame: enqueueing a valid prefix would
			// desync the client's idea of what a later sync covers. A
			// removal of a rule that does not exist passes here; it
			// surfaces at apply and is dropped by the per-op retry.
			if err := cw.writeLine("err " + msg); err != nil {
				return ""
			}
			continue
		}
		warned := false
		for i := range frame.Ops {
			e := ingest.Entry{Op: frame.Ops[i]}
			if !warned {
				if ring.TryPush(e) {
					continue
				}
				// Ring full. Tell the client once per frame, then block:
				// the explicit busy line plus the bounded ring is the
				// backpressure story — nothing buffers beyond capacity.
				warned = true
				st.busy.Add(1)
				if err := cw.writeLine(fmt.Sprintf("busy depth=%d", ring.Depth())); err != nil {
					return ""
				}
			}
			if !ring.Push(e) {
				werr := cw.writeLine("err " + errClosing.Error())
				_ = werr // the connection ends either way
				return ""
			}
		}
		st.ops.Add(uint64(len(frame.Ops)))
	}
}

// IngestOps queues decoded ops through the same ring path the binary
// protocol uses — the in-process entrance for dnserve's -feed replay
// sources and for benchmarks. Ops are topology-validated first (the
// whole slice is refused on the first bad reference); the call blocks
// under backpressure exactly like a connection and reports false when
// the slice was refused or the server is closing.
func (s *Server) IngestOps(ops []core.BatchOp) bool {
	if s.replicaOf != "" {
		return false
	}
	if msg := s.checkOps(ops); msg != "" {
		return false
	}
	for i := range ops {
		if !s.ing.ring.Push(ingest.Entry{Op: ops[i]}) {
			return false
		}
	}
	s.ing.ops.Add(uint64(len(ops)))
	return true
}

// IngestBarrier blocks until every op queued before the call has been
// applied — a feed's quiesce point — returning the total applied count
// (0 once the server is closing).
func (s *Server) IngestBarrier() uint64 {
	var applied uint64
	s.barrier(func() { applied = s.ing.applied })
	return applied
}

// coalesce is the writer, the ring's single consumer: it blocks for the
// next entry, drains the ops immediately available behind it into one run
// (up to maxIngestBatch, never past a unit, and less when the adaptive
// trigger fires), commits the run, then runs the unit that ended it, and
// lands the iteration's journal records before releasing the lock. It
// exits when the ring is closed and drained.
func (s *Server) coalesce(ring *ingest.Ring) {
	st := &s.ing
	run := unit{run: true, ops: make([]core.BatchOp, 0, maxIngestBatch)}
	var batchDeps, opDeps bitset.Set
	var e ingest.Entry
	carried := false // e is an op the adaptive trigger left for the next run
	for {
		ok := carried
		if !ok {
			if e, ok = ring.Pop(); !ok {
				break
			}
		}
		carried = false
		run.ops = run.ops[:0]
		batchDeps.Clear()
		lastLink := netgraph.LinkID(-1)
		var u *unit
		for ; ok; e, ok = ring.TryPop() {
			if e.Unit != 0 {
				u = st.units[e.Unit-1]
				break
			}
			if s.splitBatchBefore(&e.Op, &lastLink, &batchDeps, &opDeps) {
				carried = true
				st.adaptive.Add(1)
				break
			}
			if run.ops = append(run.ops, e.Op); len(run.ops) == maxIngestBatch {
				break
			}
		}
		if len(run.ops) > 0 {
			st.batches.Add(1)
		}
		t0 := time.Now()
		s.mu.Lock()
		// The lock wait is a stage of the first commit: the run's, or
		// else the unit's (applyLocked clears run.st once it commits).
		run.st = stageInfo{lockNs: time.Since(t0).Nanoseconds()}
		s.applyLocked(&run)
		st.applied += uint64(len(run.ops))
		if u != nil {
			u.st.lockNs = run.st.lockNs
			s.applyLocked(u)
		}
		s.journalFlushLocked()
		s.mu.Unlock()
		if u != nil {
			u.done <- struct{}{} // u is its producer's again
		}
	}
}

// splitBatchBefore is the adaptive flush trigger: it reports whether the
// run should be committed before op joins it — op's dirty-invariant
// footprint (the subgoals whose dependency sets cover its link) is
// disjoint from the run's — and otherwise folds that footprint into
// batchDeps. Ops with no footprint — removals (their link is unknown
// without a rule lookup), drop-link inserts, anything when no invariants
// are registered — ride along and never force a flush, and so does an op
// on the link the last footprint came from (*last): feed replay hammers
// one link for long runs, and its deps are already folded in.
func (s *Server) splitBatchBefore(op *core.BatchOp, last *netgraph.LinkID, batchDeps, opDeps *bitset.Set) bool {
	if !op.Insert || op.Rule.Link < 0 || op.Rule.Link == *last || s.mon.NumRegistered() == 0 {
		return false
	}
	opDeps.Clear()
	s.mon.LinkDepsInto(int(op.Rule.Link), opDeps)
	if !opDeps.Empty() && !batchDeps.Empty() && !batchDeps.Intersects(opDeps) {
		return true
	}
	batchDeps.UnionWith(opDeps)
	*last = op.Rule.Link
	return false
}

// applyLocked runs one unit: its barrier, or its ops committed as one
// update (commitLocked). A commit is all-or-nothing, but a coalesced run
// interleaves independent producers — one client's duplicate id must not
// void its neighbours' work — so a refused run is committed again op by
// op, dropping (and counting) only the ops the engine refuses. Any other
// unit's error is its producer's answer. Caller holds the write lock.
func (s *Server) applyLocked(u *unit) {
	if u.fn != nil {
		u.fn()
	}
	ops, n := u.ops, len(u.ops)
	for len(ops) > 0 {
		loops, err := s.commitLocked(ops[:n], u.st, u.record)
		switch {
		case err != nil && u.run && n > 1:
			n = 1
			continue
		case err != nil && u.run:
			s.ing.rejected.Add(1)
		case err != nil:
			u.err = err
		case u.head != "":
			u.reply = s.updateResponse(u.head, loops)
		}
		ops, u.st = ops[n:], stageInfo{}
	}
}
