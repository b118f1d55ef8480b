package server

// This file is the high-rate ingestion front end: the binary batch
// protocol (internal/binproto) feeding a bounded lock-free MPSC ring
// (internal/ingest) drained by a single coalescer goroutine.
//
// The line protocol pays for its simplicity on the hot path: every
// update is text parsed inside the write lock, and every B batch is a
// full request-response round trip. The binary path restructures all
// three costs. A connection upgrades with "dnbin 1" and then streams
// length-prefixed frames of packed ops; the connection goroutine
// decodes and topology-validates them without the engine lock (checkOps)
// and pushes finished core.BatchOps into the ring, so many connections
// decode and admit while the engine applies and the coalescer finds full
// runs waiting. It commits each run as one update (commitLocked: one
// ApplyBatch, one loop check, one monitor pass, one journal record per
// run instead of per op), sizing runs adaptively: when the next op's
// dirty-invariant footprint (monitor.LinkDepsInto) is disjoint from the
// batch's accumulated footprint, the batch flushes early so each
// evaluation fan-out stays tight instead of dirtying the union of two
// unrelated regions.
//
// Backpressure is explicit and memory stays bounded: the ring has fixed
// capacity, a connection that finds it full tells its client once per
// frame with a "busy depth=<n>" line and then blocks in Push, and sync
// frames give clients a quiesce point ("ok sync <token> applied=<n>"
// once everything framed before the sync has been applied).

import (
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
)

// ingestState is the Server's binary-ingest half: the ring between
// connection decoders and the coalescer, the applied-count barrier sync
// frames wait on, and the counters the stats line and metrics export.
type ingestState struct {
	capacity int // WithIngestRing; 0 means defaultIngestRing

	once sync.Once
	ring atomic.Pointer[ingest.Ring] // non-nil once started (atomic: scraped concurrently)

	// mu guards applied/exited for the sync-frame barrier. It is a
	// leaf: nothing is acquired while holding it, and it is never held
	// across a ring operation or an engine apply.
	//
	//deltanet:lockrank 25
	mu      sync.Mutex
	cond    *sync.Cond
	applied uint64 // ring entries the coalescer has consumed and applied (or rejected)
	exited  bool   // coalescer gone; barriers must stop waiting

	connSeq  atomic.Uint32 // binary connection tags (ring diagnostics)
	frames   atomic.Uint64 // binary frames decoded
	ops      atomic.Uint64 // ops accepted into the ring
	busy     atomic.Uint64 // busy lines written (ring-full events)
	batches  atomic.Uint64 // coalesced applies
	adaptive atomic.Uint64 // batches cut early by the disjoint-deps trigger
	rejected atomic.Uint64 // ops dropped by per-op fallback (bad ids, duplicates)
}

// startIngest lazily starts the ring and its coalescer on the first
// binary handshake or feed push, so servers that never see binary
// ingest never pay for the goroutine.
func (s *Server) startIngest() {
	st := &s.ing
	st.once.Do(func() {
		capacity := st.capacity
		if capacity <= 0 {
			capacity = defaultIngestRing
		}
		r := ingest.New(capacity)
		st.cond = sync.NewCond(&st.mu)
		st.ring.Store(r)
		s.wg.Add(2)
		go func() {
			// Closing the ring is what terminates the coalescer: queued
			// entries drain, then Pop reports closure. Producers racing
			// shutdown get Push=false and their connections are being
			// torn down anyway (their clients hold no sync ack for the
			// lost tail).
			defer s.wg.Done()
			<-s.closed
			r.Close()
		}()
		go func() {
			defer s.wg.Done()
			s.coalesce(r)
		}()
	})
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
	s.startIngest()
	st := &s.ing
	ring := st.ring.Load()
	if err := cw.writeLine(fmt.Sprintf("ok dnbin %d", binproto.Version)); err != nil {
		return ""
	}
	connID := st.connSeq.Add(1)
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
			// The global push ticket covers everything this connection
			// framed before the sync (its own pushes are all ≤ it).
			ticket := ring.Pushed()
			if err := cw.writeLine(fmt.Sprintf("ok sync %d applied=%d", frame.Token, s.waitApplied(ticket))); err != nil {
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
			// surfaces at apply and is dropped by the per-op fallback.
			if err := cw.writeLine("err " + msg); err != nil {
				return ""
			}
			continue
		}
		warned := false
		for i := range frame.Ops {
			e := ingest.Entry{Op: frame.Ops[i], Conn: connID}
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
				return "" // ring closed: server shutting down
			}
		}
		st.ops.Add(uint64(len(frame.Ops)))
	}
}

// waitApplied blocks until the coalescer has consumed at least ticket
// ring entries (or exited), returning the applied count.
func (s *Server) waitApplied(ticket uint64) uint64 {
	st := &s.ing
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.applied < ticket && !st.exited {
		st.cond.Wait()
	}
	return st.applied
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
	s.startIngest()
	st := &s.ing
	ring := st.ring.Load()
	for i := range ops {
		if !ring.Push(ingest.Entry{Op: ops[i]}) {
			return false
		}
	}
	st.ops.Add(uint64(len(ops)))
	return true
}

// IngestBarrier blocks until every op queued before the call has been
// applied — a feed's quiesce point — returning the total applied count.
func (s *Server) IngestBarrier() uint64 {
	s.startIngest()
	return s.waitApplied(s.ing.ring.Load().Pushed())
}

// coalesce is the ring's single consumer: it blocks for the next op,
// drains whatever else is immediately available into one batch (up to
// maxIngestBatch, or less when the adaptive trigger fires), and applies
// the batch in one engine pass. It exits when the ring is closed and
// drained.
func (s *Server) coalesce(ring *ingest.Ring) {
	st := &s.ing
	defer func() {
		st.mu.Lock()
		st.exited = true
		st.cond.Broadcast()
		st.mu.Unlock()
	}()
	batch := make([]core.BatchOp, 0, maxIngestBatch)
	var batchDeps, opDeps bitset.Set
	var pending ingest.Entry
	havePending := false
	for {
		var e ingest.Entry
		if havePending {
			e, havePending = pending, false
		} else {
			var ok bool
			if e, ok = ring.Pop(); !ok {
				return
			}
		}
		batch = batch[:0]
		batchDeps.Clear()
		batch = append(batch, e.Op)
		s.splitBatchBefore(&e.Op, &batchDeps, &opDeps) // seeds the footprint; a 1-op batch never splits
		// Feed replay hammers one link for long runs; once a link's deps
		// are folded into batchDeps, later ops on the same link cannot
		// split and need no recomputation.
		lastLink := coalesceLinkOf(&e.Op)
		for len(batch) < maxIngestBatch {
			next, ok := ring.TryPop()
			if !ok {
				break
			}
			if l := coalesceLinkOf(&next.Op); l >= 0 && l == lastLink {
				batch = append(batch, next.Op)
				continue
			} else if s.splitBatchBefore(&next.Op, &batchDeps, &opDeps) {
				// Disjoint dirty-invariant footprints: flush what we
				// have and let next start the following batch.
				pending, havePending = next, true
				st.adaptive.Add(1)
				break
			} else if l >= 0 {
				// Footprint-free ops (l < 0) ride along without
				// disturbing the memo, so R/I flap pairs on one link
				// still skip the recomputation.
				lastLink = l
			}
			batch = append(batch, next.Op)
		}
		s.applyCoalesced(batch)
		st.mu.Lock()
		st.applied += uint64(len(batch))
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// coalesceLinkOf is the coalescer's same-link memo key: the link of an
// insert that could carry a dirty-invariant footprint, or -1 for
// footprint-neutral ops (removals, drop-link inserts), which never
// match the memo.
func coalesceLinkOf(op *core.BatchOp) netgraph.LinkID {
	if !op.Insert || op.Rule.Link < 0 {
		return -1
	}
	return op.Rule.Link
}

// splitBatchBefore is the adaptive flush trigger: it reports whether the
// batch should flush before op joins it, and otherwise folds op's
// dirty-invariant footprint (the invariants whose dependency sets cover
// its link) into batchDeps. Ops with no footprint — removals (their
// link is unknown without a rule lookup), drop-link inserts, anything
// when no invariants are registered — are neutral: they ride along and
// never force a flush.
func (s *Server) splitBatchBefore(op *core.BatchOp, batchDeps, opDeps *bitset.Set) bool {
	if !op.Insert || op.Rule.Link < 0 || s.mon.NumRegistered() == 0 {
		return false
	}
	opDeps.Clear()
	s.mon.LinkDepsInto(int(op.Rule.Link), opDeps)
	if opDeps.Empty() {
		return false
	}
	if !batchDeps.Empty() && !batchDeps.Intersects(opDeps) {
		return true
	}
	batchDeps.UnionWith(opDeps)
	return false
}

// applyCoalesced commits one coalesced run under the write lock: one
// ApplyBatch, one loop check, one monitor pass, one journal record
// (commitLocked). A commit is all-or-nothing, but a run interleaves
// independent producers — one client's duplicate id must not void its
// neighbors' work — so a refused run is committed again op by op,
// dropping (and counting) only the offending ops.
func (s *Server) applyCoalesced(ops []core.BatchOp) {
	s.ing.batches.Add(1)
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.commitLocked(ops, stageInfo{lockNs: time.Since(t0).Nanoseconds()}, false); err == nil {
		return
	}
	for i := range ops {
		if _, err := s.commitLocked(ops[i:i+1], stageInfo{}, false); err != nil {
			s.ing.rejected.Add(1)
		}
	}
}
