package server

// This file is the replica side of the replication substrate
// (WithReplicaOf): a loop that dials the primary, anchors on its
// checkpoint when needed, streams the journal tail, and applies every
// record into this server's own data plane and monitor — which then
// serves reach/whatif/stats/W/watch locally, with verdicts and event
// numbering that track the primary's (a record commits through the same
// commitLocked the primary's update took, so both sides count alike).
//
// Consistency model: the replica is an eventually consistent snapshot
// of the primary. Applied journal records are whole updates, so every
// state a query sees existed on the primary; the event sequence is
// monotonic and shared with the primary, so a watcher that fails over
// carries its "watch since <seq>" cursor and sees either the missed
// suffix or an explicit gap + snapshot — never silent divergence. When
// the primary rotates its journal past the replica's cursor (replica
// down across a checkpoint), the replica re-anchors: fresh checkpoint,
// rebuilt data plane, resumed counters.

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/netgraph"
)

const (
	// replicaDialTimeout bounds one connection attempt to the primary.
	replicaDialTimeout = 5 * time.Second
	// replicaBackoffMax caps the reconnect backoff.
	replicaBackoffMax = 3 * time.Second
)

// replicaLagBytes is the replica's byte lag: primary journal end (as of
// the last received frame) minus the offset applied through.
func (s *Server) replicaLagBytes() uint64 {
	end, cur := s.replEnd.Load(), s.replCursor.Load()
	if end <= cur {
		return 0
	}
	return end - cur
}

// replicaLagSeconds is the replica's time lag: 0 when caught up, else
// the age of the last applied record's stamp.
func (s *Server) replicaLagSeconds() float64 {
	if s.replicaLagBytes() == 0 {
		return 0
	}
	st := s.replStamp.Load()
	if st == 0 {
		return 0
	}
	lag := time.Since(time.Unix(0, st)).Seconds()
	if lag < 0 {
		return 0
	}
	return lag
}

// replicaLoop runs replication sessions against the primary until the
// server closes, reconnecting with capped backoff. Started by Serve.
func (s *Server) replicaLoop() {
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		err := s.replicaSession()
		select {
		case <-s.closed:
			return
		default:
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnserve: replica: %v (retrying in %v)\n", err, backoff)
		}
		select {
		case <-s.closed:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > replicaBackoffMax {
			backoff = replicaBackoffMax
		}
	}
}

// replicaSession runs one connection's worth of replication: anchor on
// a checkpoint when this replica has no state yet (or was told its
// cursor is truncated), then stream and apply the journal tail until
// the connection dies.
func (s *Server) replicaSession() error {
	conn, err := net.DialTimeout("tcp", s.replicaOf, replicaDialTimeout)
	if err != nil {
		return err
	}
	// Track the conn like an inbound one so Close unblocks the stream
	// read; track refuses when the server is already closing.
	if !s.track(conn) {
		conn.Close()
		return nil
	}
	defer func() {
		conn.Close()
		s.untrack(conn)
	}()
	sc := newLineReader(conn)

	s.mu.RLock()
	anchored := s.graph.NumNodes() > 0 || s.net.NumRules() > 0 || s.replCursor.Load() > 0
	s.mu.RUnlock()
	for {
		if !anchored {
			if err := s.replicaAnchor(conn, sc); err != nil {
				return err
			}
		}
		err := s.replicaStream(conn, sc)
		if err == errJournalTruncated {
			// The primary rotated past our cursor: re-anchor on a fresh
			// checkpoint over the same connection.
			s.replanchors.Add(1)
			anchored = false
			continue
		}
		return err
	}
}

// errJournalTruncated is replicaStream's signal that the primary
// refused the cursor and a checkpoint re-anchor is needed.
var errJournalTruncated = fmt.Errorf("journal truncated at primary")

// replicaAnchor fetches the primary's checkpoint and (re)builds the
// local data plane from it: fresh graph, network, and monitor state,
// with event/update counters resumed from the dump so numbering stays
// continuous with the primary. The dump is decoded straight off the
// connection in a barrier on the writer, under the write lock: queries
// wait for the new plane rather than see a half-built one. A dump that
// does not load — the primary went away mid-body, say — leaves the
// replica empty and unanchored, so the next session anchors afresh.
func (s *Server) replicaAnchor(conn net.Conn, sc *lineReader) error {
	//deltanet:nolint guardedwriter outbound client conn to the primary, owned by this goroutine alone; the guard is for served conns shared with watch fan-out
	if _, err := fmt.Fprintln(conn, "checkpoint"); err != nil {
		return err
	}
	if !sc.Scan() {
		return scanFail(sc, "checkpoint response")
	}
	var off uint64
	var n int64
	if _, err := fmt.Sscanf(sc.Text(), "ok checkpoint offset=%d bytes=%d", &off, &n); err != nil || n < 1 {
		return fmt.Errorf("bad checkpoint response %q", sc.Text())
	}
	err := errClosing // unless the writer runs the barrier
	s.barrier(func() {
		s.resetReplicaLocked()
		if err = s.loadStateLocked(io.LimitReader(sc.br, n)); err != nil {
			s.resetReplicaLocked()
			s.replCursor.Store(0)
			return
		}
		s.replCursor.Store(off)
		if end := s.replEnd.Load(); end < off {
			s.replEnd.Store(off)
		}
	})
	if err != nil {
		return fmt.Errorf("loading the primary's checkpoint: %w", err)
	}
	return nil
}

// resetReplicaLocked empties the data plane for a checkpoint re-anchor:
// fresh graph and network, monitor unbound from the old ones with its
// sequence counters intact (monitor.Reset). Caller holds the write
// lock, which excludes every query and dump for the duration.
func (s *Server) resetReplicaLocked() {
	g := netgraph.New()
	n := core.NewNetwork(g, s.engineOpts)
	s.graph = g
	s.net = n
	s.delta = core.Delta{}
	s.loadedJournal = 0
	s.mon.Reset(n)
}

// replicaStream requests the journal tail after the current cursor and
// applies frames until the connection dies (error returned) or the
// primary reports the cursor truncated (errJournalTruncated).
func (s *Server) replicaStream(conn net.Conn, sc *lineReader) error {
	cursor := s.replCursor.Load()
	//deltanet:nolint guardedwriter outbound client conn to the primary, owned by this goroutine alone; the guard is for served conns shared with watch fan-out
	if _, err := fmt.Fprintf(conn, "journal since %d\n", cursor); err != nil {
		return err
	}
	if !sc.Scan() {
		return scanFail(sc, "journal response")
	}
	resp := strings.TrimSpace(sc.Text())
	if strings.HasPrefix(resp, "err journal truncated") {
		return errJournalTruncated
	}
	if !strings.HasPrefix(resp, "ok journal ") {
		return fmt.Errorf("bad journal response %q", resp)
	}
	var payload []byte // record body, reused across frames
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "err journal truncated") {
			// A rotation raced the file catch-up mid-stream.
			return errJournalTruncated
		}
		end, pend, seq, stamp, n, err := parseJournalFrame(line)
		if err != nil {
			return err
		}
		// The body is the record's frame, length-prefixed by the header:
		// raw bytes straight off the line reader's buffer.
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(sc.br, payload); err != nil {
			return fmt.Errorf("reading journal frame payload: %w", err)
		}
		err = errClosing // unless the writer runs the record
		s.barrier(func() { err = s.applyRecordLocked(payload, seq) })
		if err != nil {
			return fmt.Errorf("applying journal record at offset %d: %v", end, err)
		}
		s.replCursor.Store(end) // the record has committed
		s.replEnd.Store(pend)
		s.replStamp.Store(stamp)
	}
	return scanFail(sc, "journal stream")
}

// parseJournalFrame parses one "r end=.. pend=.. seq=.. t=.. bytes=.."
// frame header; n is the byte length of the body that follows.
func parseJournalFrame(line string) (end, pend, seq uint64, stamp int64, n int, err error) {
	bad := func() (_, _, _ uint64, _ int64, _ int, err error) {
		return 0, 0, 0, 0, 0, fmt.Errorf("bad journal frame %q", line)
	}
	fields := strings.Fields(line)
	if len(fields) != 6 || fields[0] != "r" {
		return bad()
	}
	var v [5]uint64
	for i, key := range [...]string{"end=", "pend=", "seq=", "t=", "bytes="} {
		num, ok := strings.CutPrefix(fields[i+1], key)
		if v[i], err = strconv.ParseUint(num, 10, 64); !ok || err != nil {
			return bad()
		}
	}
	if v[4] < 1 || v[4] > journal.MaxPayload {
		return bad()
	}
	return v[0], v[1], v[2], int64(v[3]), int(v[4]), nil
}

// scanFail turns a scanner stop into an error: the scanner's own error
// when it has one, a disconnect otherwise.
func scanFail(sc *lineReader, during string) error {
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", during, err)
	}
	return fmt.Errorf("primary closed the connection during %s", during)
}
