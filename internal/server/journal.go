package server

// This file is the primary side of the replication substrate: appending
// every applied mutation to the update journal, serving a consistent
// checkpoint over the wire, streaming the journal tail to replicas
// ("journal since <offset>"), and replaying a local journal suffix
// after a restart.
//
// A journal record's payload is one dnbin frame (internal/binproto):
// KindOps for an I, an R, a B batch or a coalesced ring run — one frame
// per atomic apply — and KindNode / KindLink for the two topology
// commands. A mutation is decoded from its wire form once, on arrival;
// from then on the frame is its only representation, encoded into one
// reusable buffer under the write lock (commitLocked's last step, and
// the node and link commands) and decoded by applyRecordLocked, on the
// writer, on crash replay and on every replica: the ops go through the
// same commitLocked. Each record is stamped with the monitor's
// post-apply update sequence number; topology records reuse the current
// number (they consume no delta).
//
// The streaming protocol after "ok journal offset=<o> end=<e>":
//
//	r end=<recEnd> pend=<primaryEnd> seq=<s> t=<unixnano> bytes=<n>
//	<n raw bytes: the record's frame>
//
// recEnd is the record's end offset — the replica's next cursor — and
// pend the primary journal's end at send time, so the replica can
// compute its byte lag from every frame. A replica whose offset
// predates the journal's base (a rotation won) is told
// "err journal truncated base=<b> end=<e>" and re-anchors on a fresh
// checkpoint.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"deltanet/internal/binproto"
	"deltanet/internal/journal"
)

// journalAppendLocked appends one applied mutation, encoded as a frame
// into (a re-slice of) s.jbuf, to the journal and holds it in jpend for
// journalFlushLocked. Only the writer calls it, under the write lock, so
// records land in apply order stamped with the update seq they produced.
func (s *Server) journalAppendLocked(frame []byte) {
	s.jbuf = frame
	seq := s.mon.UpdateSeq()
	end, err := s.jrnl.Append(seq, string(frame))
	if err != nil {
		s.jrnlErrs.Add(1)
		return
	}
	rec := journal.Record{Seq: seq, End: end}
	if len(s.jsubs) > 0 {
		rec.Payload = bytes.Clone(frame)
	}
	s.jpend = append(s.jpend, rec)
}

// journalFlushLocked lands the writer iteration's records with one write
// (plus one fsync under SyncAlways), then sends them to the journal
// streams. The writer calls it before releasing the write lock, so while
// the lock is free End is the flushed frontier, and no stream is sent a
// record the file lacks. Records a failed flush lost are counted instead.
func (s *Server) journalFlushLocked() {
	if len(s.jpend) == 0 {
		return
	}
	_ = s.jrnl.Flush() // on failure End rolls back; the loop counts what was lost
	flushed := s.jrnl.End()
	for _, rec := range s.jpend {
		switch {
		case rec.End > flushed:
			s.jrnlErrs.Add(1)
		case rec.Payload != nil: // appended while a stream listened
			for ch := range s.jsubs {
				select {
				case ch <- rec:
				default:
					// A stream this far behind is cheaper to drop: the replica
					// reconnects and catches up from the file.
					delete(s.jsubs, ch)
					close(ch)
				}
			}
		}
	}
	s.jpend = s.jpend[:0]
}

// jstreamBuffer is a journal stream's fan-out channel capacity; a
// subscriber that falls this far behind live appends is dropped and
// re-anchors from the file on reconnect.
const jstreamBuffer = 1024

// writeCheckpoint serves the checkpoint verb: a state dump (SaveState's
// bytes) framed for the wire as "ok checkpoint offset=<o> bytes=<n>"
// followed by exactly n raw bytes, the way journal records travel.
// offset is the journal offset the dump is current through — the cursor
// the client hands to "journal since". A non-nil error means the client
// is unreachable.
func (s *Server) writeCheckpoint(fields []string, cw *connWriter) error {
	if len(fields) != 1 {
		return cw.writeLine("err usage: checkpoint")
	}
	var dump bytes.Buffer
	off, err := s.CheckpointTo(&dump, s.mon.SnapshotSpecs())
	if err != nil {
		return cw.writeLine("err checkpoint: " + err.Error())
	}
	return cw.writeFrame(fmt.Sprintf("ok checkpoint offset=%d bytes=%d", off, dump.Len()), dump.Bytes())
}

// streamJournal serves "journal since <offset>": it subscribes to live
// records, catches up from the file, and then streams frames until the
// connection dies or the server closes. It returns "" when streaming
// ran (the connection is spent), else a response line: a refusal, or a
// rotation that cut the catch-up short.
func (s *Server) streamJournal(fields []string, cw *connWriter) string {
	if s.jrnl == nil {
		return "err journal disabled"
	}
	if len(fields) != 3 || fields[1] != "since" {
		return "err usage: journal since <offset>"
	}
	from, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return "err bad journal offset"
	}
	// Subscribe on the writer, where the journal's bounds are read: every
	// record up to end is in the file once the barrier returns (the writer
	// flushes before it lets go), and every later one reaches ch.
	ch := make(chan journal.Record, jstreamBuffer)
	var base, end uint64
	if !s.barrier(func() {
		if base, end = s.jrnl.Base(), s.jrnl.End(); base <= from && from <= end {
			s.jsubs[ch] = struct{}{}
		}
	}) {
		return "err " + errClosing.Error()
	}
	if from < base {
		return fmt.Sprintf("err journal truncated base=%d end=%d", base, end)
	}
	if from > end {
		return fmt.Sprintf("err journal offset %d beyond end %d", from, end)
	}
	defer s.barrier(func() {
		if _, live := s.jsubs[ch]; live {
			delete(s.jsubs, ch)
			close(ch)
		}
	})

	if err := cw.writeLine(fmt.Sprintf("ok journal offset=%d end=%d", from, end)); err != nil {
		return ""
	}
	// Catch up from the file: everything flushed after from, which covers
	// every record ch was not sent.
	r, err := s.jrnl.ReadFrom(from)
	if err != nil { // a rotation raced past from: the replica re-anchors
		return fmt.Sprintf("err journal truncated base=%d end=%d", s.jrnl.Base(), s.jrnl.End())
	}
	cursor := from
	rec, err := r.Next()
	for ; err == nil && s.writeJournalFrame(cw, rec); rec, err = r.Next() {
		cursor = rec.End
	}
	r.Close()
	if err != io.EOF {
		return "" // the client is gone, or the file is damaged
	}
	for {
		select {
		case rec, live := <-ch:
			if !live {
				// Dropped by the writer: end the stream; the replica
				// reconnects and catches up from the file.
				return ""
			}
			if rec.End <= cursor {
				continue // already sent by the file catch-up
			}
			if !s.writeJournalFrame(cw, rec) {
				return ""
			}
			cursor = rec.End
		case <-s.closed:
			return ""
		}
	}
}

// writeJournalFrame writes one record as a header line plus its
// length-prefixed payload bytes, reporting whether the client is still
// writable.
func (s *Server) writeJournalFrame(cw *connWriter, rec journal.Record) bool {
	head := fmt.Sprintf("r end=%d pend=%d seq=%d t=%d bytes=%d",
		rec.End, s.jrnl.End(), rec.Seq, rec.Stamp, len(rec.Payload))
	return cw.writeFrame(head, rec.Payload) == nil
}

// ReplayJournal applies the records of j after the offset the loaded
// state dump was current through (LoadState's journal record; 0 when
// the dump predates journaling) — the local crash-recovery path:
// checkpoint + journal suffix = the full pre-crash state. Call it
// after LoadState and before Serve, with j the same journal the server
// was constructed with (WithJournal). It returns the number of records
// applied.
func (s *Server) ReplayJournal(j *journal.Journal) (int, error) {
	from := s.loadedJournal
	if from < j.Base() {
		return 0, fmt.Errorf("server: journal rotated past the state file's offset %d (base %d); checkpoint and journal disagree", from, j.Base())
	}
	if from >= j.End() {
		return 0, nil
	}
	r, err := j.ReadFrom(from)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	// One barrier for the whole replay: before Serve nothing else is
	// queued, so a handoff per record would buy nothing.
	applied := 0
	err = errClosing // unless the writer runs the barrier
	s.barrier(func() {
		var rec journal.Record
		for rec, err = r.Next(); err == nil; rec, err = r.Next() {
			if err = s.applyRecordLocked(rec.Payload, rec.Seq); err != nil {
				err = fmt.Errorf("server: journal replay at offset %d: %v", rec.End, err)
				return
			}
			applied++
		}
		if err == io.EOF {
			err = nil
		}
	})
	return applied, err
}

// applyRecordLocked applies one journal record as an update of its own:
// decode the frame into the reused op buffer, then AddNode, AddLink, or
// the same commitLocked a live update takes. It is the whole record
// decoder, run on the writer by ReplayJournal and the replica stream. A
// record's stamp is the primary's update seq after it; every entrance
// counts alike, so the local counter already agrees, and ResumeUpdates
// only snaps it forward should a journal ever run ahead of it. On error
// the rules and the monitor are untouched. Caller holds the write lock.
func (s *Server) applyRecordLocked(payload []byte, seq uint64) error {
	f, err := binproto.Decode(payload, s.jops)
	if err != nil {
		return err
	}
	switch f.Kind {
	case binproto.KindNode:
		s.graph.AddNode(f.Name)
	case binproto.KindLink:
		if !s.validNode(int(f.Src)) || !s.validNode(int(f.Dst)) {
			return errors.New("link record names an unknown node")
		}
		s.graph.AddLink(f.Src, f.Dst)
	case binproto.KindOps:
		s.jops = f.Ops[:0]
		if len(f.Ops) == 0 {
			return errors.New("empty ops record")
		}
		u := unit{ops: f.Ops, record: true}
		if s.applyLocked(&u); u.err != nil {
			return u.err
		}
	default:
		return fmt.Errorf("frame kind %d is not a journal record", f.Kind)
	}
	s.mon.ResumeUpdates(seq)
	return nil
}
