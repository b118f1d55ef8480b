package server

// This file is the server's state save/load: the durable half of the
// deployment mode. A dnserve restarted from a state file comes back with
// the same topology (ids preserved, so protocol references survive the
// restart), the same rules, and every standing invariant re-registered
// and re-evaluated against the restored data plane — clients reconnect,
// resume their watches, and see verdicts identical to a server that
// never died.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"deltanet/internal/core"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

// stateHeader is the first line of a version-3 state file. The format is
// line-oriented and human-readable, in this order:
//
//	deltanet-state 3
//	node <name>                              (one per node, in id order)
//	link <srcID> <dstID>                     (one per link, in id order)
//	drop <nodeID>                            (optional: the drop sink)
//	rule <id> <srcID> <linkID> <lo> <hi> <prio>
//	seq <lastEventSeq>                       (optional: event-stream cursor)
//	upd <updateSeq>                          (optional: update counter)
//	journal <offset>                         (optional: journal cursor)
//	spec <serialized invariant>              (monitor.FormatSpec form)
//
// Nodes and links are dumped positionally so every id a client or a spec
// references means the same thing after a restore; the drop line
// reattaches the drop-sink bookkeeping that AddNode/AddLink replay alone
// cannot recover (the sink's special treatment in loop and black-hole
// checks would otherwise be lost). The seq line carries the last
// published event sequence number across the restart, so the restored
// monitor resumes numbering where the previous incarnation stopped and
// a watcher's "watch since <seq>" cursor keeps meaning the same point
// in the stream — the gap it is shown covers only the genuinely missed
// window, not a whole foreign stream. The v3 additions serve the
// journal/replication substrate: upd carries the monitor's update
// sequence counter (so replayed journal records keep the primary's
// numbering), and journal is the logical journal offset the dump is
// current through — the exact cursor to resume "journal since" from, or
// to replay a local journal suffix after a crash. Version-1 and -2
// files load unchanged.
const (
	stateHeader   = "deltanet-state 3"
	stateHeaderV2 = "deltanet-state 2"
	stateHeaderV1 = "deltanet-state 1"
)

// SaveState writes the server's durable state — topology, rules, the
// event-stream cursor, and the currently registered invariant specs —
// to w in the version-3 format (stateHeader). It takes the read lock, so
// it may run concurrently with serving (mutations block for the
// duration of the dump).
//
// On the shutdown path, capture the spec list with
// Monitor().SnapshotSpecs() BEFORE Close and pass it to
// SaveStateWithSpecs: Close's connection drain sweeps every
// client-held registration, so a post-Close SaveState would persist
// only preloaded invariants and forget the live watch set.
func (s *Server) SaveState(w io.Writer) error {
	return s.SaveStateWithSpecs(w, s.mon.SnapshotSpecs())
}

// SaveStateWithSpecs is SaveState with an explicit invariant list (the
// SnapshotSpecs format), for callers that captured the watch set at a
// different moment than the dump — see SaveState.
func (s *Server) SaveStateWithSpecs(w io.Writer, specs []string) error {
	_, err := s.CheckpointTo(w, specs)
	return err
}

// CheckpointTo is SaveStateWithSpecs returning the journal offset the
// dump is current through (0 without a journal): the cursor a journal
// rotation anchors to (Journal.Rotate keeps everything after it), and
// the dump's own journal record. Offset and dump are captured under one
// read-lock acquisition, so no update can land between them.
func (s *Server) CheckpointTo(w io.Writer, specs []string) (journalOffset uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.saveStateLocked(w, specs)
}

// saveStateLocked writes the state dump. Caller holds s.mu in some mode
// (mutations are excluded for the duration, so the journal offset, the
// monitor counters, and the engine contents are one consistent cut).
func (s *Server) saveStateLocked(w io.Writer, specs []string) (journalOffset uint64, err error) {
	bw := bufio.NewWriter(w) // write errors stick; the final Flush reports them
	text := func(key, val string) {
		bw.WriteString(key)
		bw.WriteString(val)
		bw.WriteByte('\n')
	}
	bw.WriteString(stateHeader + "\n")
	for v := 0; v < s.graph.NumNodes(); v++ {
		text("node ", s.graph.NodeName(netgraph.NodeID(v)))
	}
	for _, l := range s.graph.Links() {
		dumpLine(bw, "link", int64(l.Src), int64(l.Dst))
	}
	if d := s.graph.DropNode(); d != netgraph.NoNode {
		dumpLine(bw, "drop", int64(d))
	}
	for _, r := range s.net.Snapshot() {
		dumpLine(bw, "rule", int64(r.ID), int64(r.Source), int64(r.Link),
			int64(r.Match.Lo), int64(r.Match.Hi), int64(r.Priority))
	}
	if seq := s.mon.LastSeq(); seq > 0 {
		dumpLine(bw, "seq", int64(seq))
	}
	if upd := s.mon.UpdateSeq(); upd > 0 {
		dumpLine(bw, "upd", int64(upd))
	}
	if s.jrnl != nil {
		journalOffset = s.jrnl.End()
		dumpLine(bw, "journal", int64(journalOffset))
	} else if s.replicaOf != "" {
		// A replica's dump carries its applied-through cursor, so a
		// replica restarted from its own state file resumes the stream
		// where it stopped.
		journalOffset = s.replCursor.Load()
		dumpLine(bw, "journal", int64(journalOffset))
	}
	for _, spec := range specs {
		text("spec ", spec)
	}
	return journalOffset, bw.Flush()
}

// dumpLine writes "key v0 v1 ...\n" to bw, rendered with strconv
// straight into the writer's free space: no fmt, and no allocation
// unless the line straddles the end of the buffer.
func dumpLine(bw *bufio.Writer, key string, vals ...int64) {
	b := append(bw.AvailableBuffer(), key...)
	for _, v := range vals {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	bw.Write(append(b, '\n'))
}

// LoadState restores a state dump (version 1, 2 or 3) into an empty server:
// topology first (ids assigned in file order, reproducing the saved
// ids), then rules (replayed through the engine, so atom state is
// rebuilt exactly as a fresh insertion history would), then invariant
// specs (each registered and immediately evaluated against the restored
// data plane); a seq record resumes event numbering where the saved
// incarnation stopped. Call it before Serve.
func (s *Server) LoadState(r io.Reader) error {
	if s.graph.NumNodes() != 0 || s.net.NumRules() != 0 {
		return fmt.Errorf("server: LoadState requires an empty server")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), 1<<20)
	if !sc.Scan() {
		return fmt.Errorf("server: not a %q file", stateHeader)
	}
	if h := strings.TrimSpace(sc.Text()); h != stateHeader && h != stateHeaderV2 && h != stateHeaderV1 {
		return fmt.Errorf("server: not a %q file", stateHeader)
	}
	var rules []core.Rule
	var specs []monitor.Spec
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		bad := func(msg string) error {
			return fmt.Errorf("server: state line %d: %s: %q", lineNo, msg, line)
		}
		// Rule lines are nearly the whole file: they are scanned in place,
		// and only the other records pay for a field slice.
		i := 0
		if key, _ := nextField(line, &i); key == "rule" {
			rule, errmsg := scanRule(line, &i, "usage: rule <id> <srcID> <linkID> <lo> <hi> <prio>")
			if errmsg == "" {
				op := core.InsertOp(rule)
				errmsg = checkOp(&op, s.graph.NumNodes(), s.graph.NumLinks())
			}
			if errmsg != "" {
				return bad(errmsg)
			}
			rules = append(rules, rule)
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return bad("usage: node <name>")
			}
			if int(s.graph.AddNode(fields[1])) != s.graph.NumNodes()-1 {
				return bad("duplicate node name")
			}
		case "link":
			src, dst, err := twoInts(fields)
			if err != nil || !s.validNode(src) || !s.validNode(dst) {
				return bad("bad link endpoints")
			}
			if int(s.graph.AddLink(netgraph.NodeID(src), netgraph.NodeID(dst))) != s.graph.NumLinks()-1 {
				return bad("duplicate link")
			}
		case "drop":
			if len(fields) != 2 {
				return bad("usage: drop <nodeID>")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || !s.validNode(id) {
				return bad("bad drop node id")
			}
			s.graph.SetDropNode(netgraph.NodeID(id))
		case "seq":
			if len(fields) != 2 {
				return bad("usage: seq <lastEventSeq>")
			}
			seq, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return bad("bad sequence number")
			}
			s.mon.ResumeSeq(seq)
		case "upd":
			if len(fields) != 2 {
				return bad("usage: upd <updateSeq>")
			}
			upd, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return bad("bad update counter")
			}
			s.mon.ResumeUpdates(upd)
		case "journal":
			if len(fields) != 2 {
				return bad("usage: journal <offset>")
			}
			off, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return bad("bad journal offset")
			}
			s.loadedJournal = off
		case "spec":
			spec, err := monitor.ParseSpec(strings.TrimSpace(strings.TrimPrefix(line, "spec")))
			if err != nil {
				return bad(err.Error())
			}
			for _, n := range monitor.SpecNodes(spec) {
				if !s.validNode(int(n)) {
					return bad("spec names an unknown node id")
				}
			}
			specs = append(specs, spec)
		default:
			return bad("unknown state record")
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("server: reading state: %w", err)
	}
	if err := s.net.Restore(rules); err != nil {
		return fmt.Errorf("server: restoring rules: %w", err)
	}
	// Specs last: each registration evaluates against the fully restored
	// data plane, so the re-registered invariants' verdicts match a fresh
	// full evaluation by construction.
	for _, spec := range specs {
		s.mon.Register(spec)
	}
	return nil
}
