package server

// This file is the server's state save/load: the durable half of the
// deployment mode. A dnserve restarted from a state file comes back with
// the same topology (ids preserved, so protocol references survive the
// restart), the same rules, and every standing invariant re-registered
// and re-evaluated against the restored data plane — clients reconnect,
// resume their watches, and see verdicts identical to a server that
// never died.
//
// A state file is a compacted journal: stateHeader, then dnbin frames —
// nodes and links in id order (so ids survive), the live rules as
// inserts, and one meta frame with what those cannot carry: the drop
// sink, the event seq ("watch since" cursors), the update seq (replayed
// journal records keep the primary's numbering), the journal offset the
// dump is current through, and the specs. It is also the checkpoint
// verb's body.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"deltanet/internal/binproto"
	"deltanet/internal/core"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

const (
	stateHeader     = "dnstate 1\n"
	textStateHeader = "deltanet-state" // older builds' text files, refused by name
	// checkpointChunk is the most ops in one insert frame, each loaded by
	// one ApplyBatch: the ring's largest run, so a load leaves the engine's
	// batch scratch sized as a live server's (a larger one would leave
	// later runs clearing a larger id table).
	checkpointChunk = maxIngestBatch
)

// SaveState writes the server's durable state — topology, rules, the
// event-stream cursor, and the currently registered invariant specs —
// to w. It takes the read lock, so it may run concurrently with serving
// (mutations block for the duration of the dump). On the shutdown path,
// capture Monitor().SnapshotSpecs() BEFORE Close and pass it to
// CheckpointTo: Close's connection drain releases every client-held
// registration.
func (s *Server) SaveState(w io.Writer) error {
	_, err := s.CheckpointTo(w, s.mon.SnapshotSpecs())
	return err
}

// CheckpointTo is SaveState with an explicit invariant list (the
// SnapshotSpecs format), returning the journal offset the dump is
// current through (0 without a journal): the cursor a journal rotation
// anchors to. Offset and dump are one read-locked cut.
func (s *Server) CheckpointTo(w io.Writer, specs []string) (journalOffset uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	meta := binproto.Meta{Drop: s.graph.DropNode(), Seq: s.mon.LastSeq(), Upd: s.mon.UpdateSeq(), Specs: specs}
	if s.jrnl != nil {
		meta.Journal = s.jrnl.End()
	} else if s.replicaOf != "" {
		meta.Journal = s.replCursor.Load() // a replica resumes its stream where it stopped
	}
	trailer := binproto.AppendMeta(nil, &meta)
	if len(trailer)-4 > binproto.MaxFrame {
		return 0, fmt.Errorf("server: checkpoint: %d bytes of invariant specs exceed one %d-byte frame", len(trailer), binproto.MaxFrame)
	}
	bw := bufio.NewWriterSize(w, 64<<10) // write errors stick; the final Flush reports them
	bw.WriteString(stateHeader)
	var buf []byte
	for v := 0; v < s.graph.NumNodes(); v++ {
		buf = binproto.AppendNode(buf[:0], s.graph.NodeName(netgraph.NodeID(v)))
		bw.Write(buf)
	}
	for _, l := range s.graph.Links() {
		buf = binproto.AppendLink(buf[:0], l.Src, l.Dst)
		bw.Write(buf)
	}
	rules := s.net.Snapshot()
	ops := make([]core.BatchOp, 0, min(len(rules), checkpointChunk))
	for len(rules) > 0 {
		ops = ops[:0]
		for _, r := range rules[:min(len(rules), checkpointChunk)] {
			ops = append(ops, core.InsertOp(r))
		}
		rules = rules[len(ops):]
		buf = binproto.AppendOps(buf[:0], ops)
		bw.Write(buf)
	}
	bw.Write(trailer)
	return meta.Journal, bw.Flush()
}

// LoadState restores a state dump into an empty server: topology in
// stream order (reproducing the saved ids), each ops frame with one
// ApplyBatch (no loop check, monitor pass, journal append or update
// count: a dump is a state, not a history), then the meta frame — the
// drop sink before the specs register, since their evaluation treats
// it specially, and the counters as saved. A dump without its meta
// frame is refused as truncated. It is a barrier on the writer.
func (s *Server) LoadState(r io.Reader) error {
	err := errClosing // unless the writer runs the barrier
	s.barrier(func() { err = s.loadStateLocked(r) })
	return err
}

// loadStateLocked is LoadState on the writer, under the write lock.
func (s *Server) loadStateLocked(r io.Reader) error {
	if s.graph.NumNodes() != 0 || s.net.NumRules() != 0 {
		return errors.New("server: LoadState requires an empty server")
	}
	br := bufio.NewReaderSize(r, 64<<10)
	switch head, _ := br.Peek(len(textStateHeader)); {
	case bytes.HasPrefix(head, []byte(stateHeader)):
		br.Discard(len(stateHeader))
	case string(head) == textStateHeader:
		return fmt.Errorf("server: a %q text state file; this build reads %q (dnbin frames): replay its node and link lines, "+
			"its rule lines as I and its spec lines as W into a fresh server, then checkpoint that", textStateHeader, stateHeader[:9])
	default:
		return fmt.Errorf("server: not a %q file", stateHeader[:9])
	}
	fr := binproto.NewReader(br)
	for {
		f, err := fr.Read()
		if err == io.EOF {
			return errors.New("server: state truncated: no meta frame")
		} else if err != nil {
			return fmt.Errorf("server: reading state: %w", err)
		}
		switch f.Kind {
		case binproto.KindNode:
			if n := s.graph.NumNodes(); int(s.graph.AddNode(f.Name)) != n {
				return fmt.Errorf("server: state: duplicate node %q", f.Name)
			}
		case binproto.KindLink:
			if !s.validNode(int(f.Src)) || !s.validNode(int(f.Dst)) {
				return fmt.Errorf("server: state: link %d -> %d names an unknown node", f.Src, f.Dst)
			}
			if n := s.graph.NumLinks(); int(s.graph.AddLink(f.Src, f.Dst)) != n {
				return fmt.Errorf("server: state: duplicate link %d -> %d", f.Src, f.Dst)
			}
		case binproto.KindOps:
			if msg := s.checkOps(f.Ops); msg != "" {
				return errors.New("server: state: " + msg)
			}
			if err := s.net.ApplyBatch(f.Ops, &s.delta, 0); err != nil {
				return fmt.Errorf("server: restoring rules: %w", err)
			}
		case binproto.KindMeta:
			if _, err := fr.Read(); err != io.EOF {
				return fmt.Errorf("server: state continues after its meta frame (%v)", err)
			}
			m := f.Meta
			specs := make([]monitor.Spec, len(m.Specs))
			for i, line := range m.Specs {
				if specs[i], err = monitor.ParseSpec(line); err != nil {
					return fmt.Errorf("server: state: spec %q: %v", line, err)
				}
				for _, n := range monitor.SpecNodes(specs[i]) {
					if !s.validNode(int(n)) {
						return fmt.Errorf("server: state: spec %q names an unknown node", line)
					}
				}
			}
			if m.Drop != netgraph.NoNode {
				if !s.validNode(int(m.Drop)) {
					return fmt.Errorf("server: state: drop node %d is unknown", m.Drop)
				}
				s.graph.SetDropNode(m.Drop)
			}
			s.mon.ResumeSeq(m.Seq)
			s.mon.ResumeUpdates(m.Upd)
			s.loadedJournal = m.Journal
			for _, spec := range specs {
				s.mon.Register(spec)
			}
			return nil
		default:
			return fmt.Errorf("server: state: frame kind %d is not a state record", f.Kind)
		}
	}
}
