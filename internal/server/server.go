// Package server exposes the Delta-net checker as a network service: an
// SDN controller (or a replay tool) streams rule updates over TCP and
// receives the verification verdict for each — the deployment mode
// sketched in the paper's Figure 7, where Delta-net sits beside the
// controller and "checks the resulting data plane" for every insertion
// and removal.
//
// The protocol is line-oriented UTF-8, one request per line, one response
// line per request, in order:
//
//	node <name>                          -> ok node <id>
//	link <srcID> <dstID>                 -> ok link <id>
//	I <ruleID> <srcID> <linkID|-1> <lo> <hi> <prio>
//	                                     -> ok atoms=<n> loops=<k> [loop <lo>:<hi> ...]
//	R <ruleID>                           -> ok atoms=<n> loops=<k> [loop <lo>:<hi> ...]
//	B <n>                                -> (multi-line, see below)
//	reach <src> <dst>                    -> ok reach <count>
//	whatif <linkID>                      -> ok whatif atoms=<n> edges=<m>
//	whatif <src> <dst>                   -> ok whatif atoms=<n> edges=<m>
//	W <spec>                             -> ok watch <id> <holds|violated>
//	unwatch <id>                         -> ok unwatch <id>
//	watch                                -> ok watching (streaming; see below)
//	watch since <seq>                    -> ok watching (replay + streaming; see below)
//	events since <seq>                   -> ok events n=<k> (k replay lines follow; see below)
//	stats                                -> ok stats rules=<r> atoms=<a> links=<l> nodes=<v> watch=<w> upd=<u> rskip=<n> ix=<bits> sub=<g>
//	quit                                 -> connection closed
//
// Wherever reach, whatif, or a W spec takes a node, it accepts either
// the numeric id or the node's name (as registered with the node
// command); numeric parsing wins, so name nodes non-numerically. Status
// and event lines echo node names back, so watch output survives
// topology renumbering — and the echoed spec re-registers to the same
// invariant. The stats line's rskip counts invariants skipped by
// atom-granular dependency tracking: updates that touched a dep link
// but only atoms the invariant's verdict never examined (ix is the
// dependency index's bit population).
//
// B introduces an atomic batch: the client sends "B <n>" followed by
// exactly n lines, each an I or R line as above, and receives one response
// for the whole batch:
//
//	B <n>
//	I ... / R ...   (n lines)
//	-> ok batch n=<n> atoms=<a> loops=<k> [loop <lo>:<hi> ...]
//
// The batch is validated before it is applied — on "err ..." none of its
// operations took effect — and is checked once over its merged delta-graph
// (see core.ApplyBatch), so a heavy update stream pays one loop check per
// batch rather than one per rule.
//
// W registers a standing invariant with the shared incremental monitor
// (internal/monitor): after every mutation, only the invariants whose
// dependency sets intersect the update's delta are re-checked. The spec
// grammar is:
//
//	W reach <srcID> <dstID>
//	W waypoint <srcID> <dstID> <viaID>
//	W isolated <id,id,...> <id,id,...>
//	W loopfree
//	W blackholefree
//
// Invariants are shared across connections: any client may register or
// observe them. Registrations are refcounted by spec — W for a spec
// another client already watches returns the same id — and every
// registration a connection made and has not unwatched is automatically
// released when the connection closes, so a flapping client that
// re-registers on every reconnect cannot grow the monitor without bound.
// unwatch releases only a reference the calling connection holds:
// releasing another connection's (or a preload's) reference would
// over-release the refcount once that owner's own teardown runs.
// Invariants registered programmatically (Server.Monitor, e.g. dnserve
// preloads) hold their own reference and survive all disconnects.
//
// watch switches the connection into streaming mode: the "ok watching"
// response is followed by one snapshot line per registered invariant,
//
//	status <id> <holds|violated> <spec> -- <detail>
//
// (taken after the subscription is live, so a transition racing the
// subscription is never silently missed), and from then on verdict
// transitions caused by any connection's mutations are pushed
// asynchronously as lines of the form
//
//	event <id> <violation|cleared> <spec> upd=<first>:<last> seq=<n> -- <detail>
//
// where upd delimits the update sequence range whose delta produced the
// transition (one update — an I, an R, a B batch or a ring run — is one
// number, so first equals last) and seq is the event's own monotonic
// sequence number (the client's resume cursor),
//
// interleaved between (never inside) regular response lines; the
// connection keeps accepting requests. A slow streaming consumer never
// stalls verification: events overflowing the subscription buffer are
// dropped, not queued unboundedly.
//
// The monitor retains a bounded backlog of recent events (monitor
// DefaultBacklog), making watch sessions durable across disconnects:
//
//   - "events since <seq>" replays the retained events with sequence
//     numbers after seq. The "ok events n=<k>" response is followed by
//     exactly k lines: a "gap <from>:<to>" line first when churn has
//     pushed part of the requested suffix off the backlog (naming the
//     lost sequence range), then one event line per retained event.
//   - "watch since <seq>" is resumable watch: after "ok watching" the
//     missed events replay as normal event lines, then live streaming
//     takes over with no seam (an event is replayed or streamed, never
//     neither). When the backlog has truncated the suffix, a
//     "gap <from>:<to>" line plus a full status snapshot re-anchor the
//     client instead, since its cached verdict state is unrecoverably
//     stale.
//
// Errors are reported as "err <message>" and do not close the connection,
// with two exceptions, both written as a final error line before the close:
// a bad batch header ("B" with a missing, unparseable, or out-of-range
// size), because the server cannot delimit the body the client committed
// to sending and any resync guess could execute body lines as individual
// commands; and a scanner error (a line over the 1MB limit, or any read
// error), because the scanner cannot resync past the bad input.
// The engine is a single shared data plane with one writer. Every
// mutation — node, link, I, R, B, a binary frame, a record streamed to a
// replica, a state file or journal suffix loaded at start — reaches it
// through the ingest ring, drained by one goroutine (ingest.go): the
// only code that takes the engine lock for writing, which applies
// mutations one at a time in arrival order. Connections parse and
// validate their mutations before handing them over. Read-only
// requests (reach, whatif, stats, W, unwatch, events, trace last) run
// concurrently under the read lock (the monitor has its own internal
// locks for registration bookkeeping and events). A mutation that
// arrives once Close has begun is answered "err server closing" and not
// applied.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
	"deltanet/internal/trace"
)

// Server is a verification service over one shared data plane.
//
// Lock order (enforced by the lockorder analyzer via the ranks below):
// mu → connMu → connWriter.mu.
type Server struct {
	// mu is write-held by the writer (ingest.go) alone, read-held for
	// queries.
	//
	//deltanet:lockrank 10
	mu    sync.RWMutex
	graph *netgraph.Graph
	net   *core.Network
	delta core.Delta
	mon   *monitor.Monitor

	// engineOpts is the engine configuration New built the network with,
	// kept so a replica re-anchor (replica.go) rebuilds an identically
	// configured one. Set once in New, then read-only.
	engineOpts core.Options

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}

	// connMu guards listener and conns.
	//
	//deltanet:lockrank 20
	connMu   sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}

	// jrnl, when non-nil, receives every applied mutation (options.go:
	// WithJournal); set before Serve, then read-only. The writer is its
	// one appender and flushes it before releasing the write lock
	// (journal.go). jrnlErrs counts records it lost (see commitLocked).
	jrnl     *journal.Journal
	jrnlErrs atomic.Uint64

	// jpend holds the records appended this writer iteration, awaiting
	// its flush, and jsubs the live journal streams they are then sent
	// to; both belong to the writer (streams register through a barrier).
	jpend []journal.Record
	jsubs map[chan journal.Record]struct{}

	// jbuf is the journal record encode buffer (filled by commitLocked
	// and the node and link commands) and jops the record decode buffer
	// (replay and the replica apply loop), reused across records; both
	// guarded by mu (write).
	jbuf []byte
	jops []core.BatchOp

	// loadedJournal is the journal offset a LoadState-restored dump was
	// current through (state.go), where ReplayJournal resumes. Written
	// only on the writer: by LoadState and the replica re-anchor.
	loadedJournal uint64

	// replicaOf, when non-empty, is the primary address this server
	// replicates from (options.go: WithReplicaOf); replica.go holds the
	// loop and the lag state below. Set before Serve, then read-only.
	replicaOf   string
	replCursor  atomic.Uint64 // journal offset applied through
	replEnd     atomic.Uint64 // primary journal end, as of the last frame
	replStamp   atomic.Int64  // unixnano stamp of the last applied record
	replanchors atomic.Uint64 // checkpoint re-anchors (journal truncations)

	// staged carries the in-flight mutation's server-side stage timings
	// for the monitor trace sink (pipeline.go). Guarded by mu: written
	// only under the write lock and cleared before it is released.
	staged stageInfo

	// tr is the per-update pipeline trace ring behind the `trace`
	// command (pipeline.go); guarded by mu.
	tr tracer

	// ing is the writer (ingest.go): the MPSC ring every mutation takes
	// and the one goroutine, started by New, that drains it.
	ing ingestState

	// met holds the hot-path metric handles once EnableMetrics has run
	// (nil before; metrics.go). Set before Serve, then read-only.
	met *serverMetrics

	// Transport counters, exported via EnableMetrics and /statusz.
	connsTotal atomic.Uint64
	bytesIn    atomic.Uint64
	bytesOut   atomic.Uint64
	scanErrs   atomic.Uint64

	started time.Time
}

// New returns a server over a fresh empty data plane, configured by
// functional options (options.go). Its writer goroutine (ingest.go) runs
// until Close.
func New(opts ...Option) *Server {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	g := netgraph.New()
	n := core.NewNetwork(g, o.engine)
	s := &Server{
		graph:      g,
		net:        n,
		mon:        monitor.New(n, 0),
		engineOpts: o.engine,
		closed:     make(chan struct{}),
		conns:      map[net.Conn]struct{}{},
		jsubs:      map[chan journal.Record]struct{}{},
		tr:         tracer{slowNs: o.slow.Nanoseconds(), slowLog: o.slowLog},
		started:    time.Now(),
	}
	// Every delta-driven evaluation pass reports its stage times back to
	// the server, merging with the staged engine-side stages (pipeline.go).
	s.mon.SetTraceSink(s.onApplyTrace)
	if o.backlog != 0 {
		s.mon.SetBacklog(o.backlog)
	}
	s.jrnl = o.jrnl
	s.replicaOf = o.replicaOf
	if o.reg != nil {
		s.enableMetrics(o.reg)
	}
	s.startWriter(o.ingCap)
	return s
}

// Monitor exposes the shared standing-invariant monitor (for preloading
// invariants before serving).
func (s *Server) Monitor() *monitor.Monitor { return s.mon }

// Network and Graph expose the engine and the topology for reading;
// updates go through the protocol, IngestOps, AddNode and AddLink, which
// commit and journal them.
func (s *Server) Network() *core.Network { return s.net }
func (s *Server) Graph() *netgraph.Graph { return s.graph }

// AddNode and AddLink grow the topology as the node and link commands
// do, journaled, so a restart from the journal alone rebuilds what a
// preload (dnserve -trace, -feed) installed. Each returns the id, an
// existing one for a name or pair already present. Each is a barrier on
// the writer (ingest.go), ordered after every mutation queued before it.
// A replica refuses both, AddNode a name that is not one protocol token,
// and AddLink an unknown node; a closing server refuses both with
// errClosing.
func (s *Server) AddNode(name string) (netgraph.NodeID, error) {
	if s.replicaOf != "" || name == "" || strings.ContainsAny(name, " \t\n\v\f\r") {
		return netgraph.NoNode, fmt.Errorf("server: cannot add node %q: not one token, or a read-only replica", name)
	}
	id := netgraph.NoNode
	if !s.barrier(func() {
		id = s.graph.AddNode(name)
		if s.jrnl != nil {
			s.journalAppendLocked(binproto.AppendNode(s.jbuf[:0], name))
		}
	}) {
		return netgraph.NoNode, errClosing
	}
	return id, nil
}

func (s *Server) AddLink(src, dst netgraph.NodeID) (netgraph.LinkID, error) {
	if s.replicaOf != "" || !s.validNode(int(src)) || !s.validNode(int(dst)) { // a primary's graph only grows
		return netgraph.NoLink, fmt.Errorf("server: cannot add link %d -> %d: unknown node, or a read-only replica", src, dst)
	}
	id := netgraph.NoLink
	if !s.barrier(func() {
		id = s.graph.AddLink(src, dst)
		if s.jrnl != nil {
			s.journalAppendLocked(binproto.AppendLink(s.jbuf[:0], src, dst))
		}
	}) {
		return netgraph.NoLink, errClosing
	}
	return id, nil
}

// Serve accepts connections on l until Close is called. It blocks; run it
// in a goroutine when the caller needs to continue.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	s.listener = l
	s.connMu.Unlock()
	// Close may have run before the listener was stored; it then had
	// nothing to close, so close here rather than block in Accept forever.
	select {
	case <-s.closed:
		l.Close()
		return nil
	default:
	}
	if s.replicaOf != "" {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.replicaLoop()
		}()
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil // clean shutdown
			default:
				return err
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if !s.track(conn) {
				conn.Close() // raced Close; shut the accepted conn down
				return
			}
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers a live connection so Close can unblock it; it reports
// false when the server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
}

// Close stops accepting, closes live connections (a watcher idling in a
// read would otherwise hold shutdown hostage), and waits for in-flight
// handlers to finish. It is idempotent: second and later calls wait like
// the first and return nil.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ing.ring.Close() // the writer drains it, then exits
		s.connMu.Lock()
		if s.listener != nil {
			err = s.listener.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	return err
}

// maxLine bounds one protocol line; a longer line is a scanner error
// reported to the client as "err line too long" before the connection
// closes.
const maxLine = 1 << 20

// connWriter is the single funnel for writes to a client connection.
// Once a connection enters watch mode a streamer goroutine shares it
// with the request loop; mu keeps whole lines atomic, and the returned
// error is how a dead client is detected (the guardedwriter analyzer
// enforces that every caller checks it and that no write bypasses this
// type).
//
//deltanet:connwriter
type connWriter struct {
	//deltanet:lockrank 40
	mu sync.Mutex
	w  *bufio.Writer
	// sent accumulates bytes written (the server's bytes-out counter).
	sent *atomic.Uint64
}

func newConnWriter(conn net.Conn, sent *atomic.Uint64) *connWriter {
	return &connWriter{w: bufio.NewWriter(conn), sent: sent}
}

// writeLine writes one protocol line and flushes it. A non-nil error
// means the client is unreachable and the connection should close.
func (cw *connWriter) writeLine(line string) error { return cw.writeFrame(line, nil) }

// writeFrame is writeLine followed, under the same lock and flush, by
// exactly len(body) raw bytes (no terminator: the line names the
// length) — the journal stream's record framing.
func (cw *connWriter) writeFrame(head string, body []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if _, err := fmt.Fprintln(cw.w, head); err != nil {
		return err
	}
	if _, err := cw.w.Write(body); err != nil {
		return err
	}
	if cw.sent != nil {
		cw.sent.Add(uint64(len(head) + 1 + len(body)))
	}
	return cw.w.Flush()
}

// countingReader counts bytes handed to the protocol scanner (the
// server's bytes-in counter).
type countingReader struct {
	conn net.Conn
	n    *atomic.Uint64
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.n.Add(uint64(n))
	}
	return n, err
}

//deltanet:dispatch
func (s *Server) handle(conn net.Conn) {
	s.connsTotal.Add(1)
	sc := newLineReader(countingReader{conn: conn, n: &s.bytesIn})
	cw := newConnWriter(conn, &s.bytesOut)

	// owned counts the references this connection holds on each watched
	// invariant (W increments, unwatch of an owned id decrements); the
	// teardown below releases the leftovers so a disconnecting client
	// cannot leak registrations.
	owned := map[monitor.ID]int{}

	var sub *monitor.Subscription
	var streamWG sync.WaitGroup
	defer func() {
		// Close before waiting: a streamer can be blocked mid-write on a
		// client that stopped reading, and only the close unblocks it.
		conn.Close()
		if sub != nil {
			sub.Cancel() // closes the channel; the streamer drains and exits
			streamWG.Wait()
		}
		for id, n := range owned {
			for ; n > 0; n-- {
				s.mon.Unregister(id)
			}
		}
	}()

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" {
			s.countVerb("quit")
			return
		}
		var resp string
		fatal := false
		switch fields := strings.Fields(line); {
		case fields[0] == "B":
			s.countVerb("B")
			resp, fatal = s.readAndApplyBatch(fields, sc)
		case fields[0] == "dnbin":
			s.countVerb("dnbin")
			// Binary upgrade: on success the rest of the connection is
			// length-prefixed frames (ingest.go); a refusal keeps the
			// line loop going.
			if resp = s.serveBinary(fields, sc, cw); resp == "" {
				return
			}
		case fields[0] == "checkpoint":
			s.countVerb("checkpoint")
			// A binary body follows the reply line, so it is written here
			// rather than returned as a line.
			if err := s.writeCheckpoint(fields, cw); err != nil {
				return
			}
			continue
		case fields[0] == "journal":
			s.countVerb("journal")
			// Streaming mode: on success the connection is dedicated to the
			// journal tail until it closes (the replica speaks no further
			// commands on it); an error response keeps the line loop going.
			if resp = s.streamJournal(fields, cw); resp == "" {
				return
			}
		case fields[0] == "watch":
			s.countVerb("watch")
			var err error
			if resp, err = s.startWatch(fields, cw, &sub, &streamWG); err != nil {
				return // client unwritable mid-handshake
			}
			if resp == "" {
				continue // streaming started; everything already written
			}
		default:
			resp = s.dispatch(line, owned)
		}
		if err := cw.writeLine(resp); err != nil || fatal {
			return
		}
	}
	// A scanner error is NOT a client disconnect: the connection may
	// still be writable (an over-long line, most commonly), so tell the
	// client what happened instead of vanishing. The scanner cannot
	// resync past the bad input, so the connection closes either way.
	// A failed write here means the client is already gone; the close
	// below is the only remaining remedy either way.
	if err := sc.Err(); err != nil {
		s.scanErrs.Add(1)
		var werr error
		if err == bufio.ErrTooLong {
			werr = cw.writeLine(fmt.Sprintf("err line too long (max %d bytes; closing connection)", maxLine))
		} else {
			werr = cw.writeLine("err read error: " + err.Error() + " (closing connection)")
		}
		_ = werr // client unreachable; connection closes regardless
	}
}

// startWatch enters streaming mode for a "watch" or "watch since <seq>"
// request. It returns ("", nil) when streaming started (the handshake
// lines were written and the streamer goroutine owns live events), a
// non-empty response when the request was refused, and a non-nil error
// when the client stopped reading mid-handshake.
//
// For a resume (since), the catch-up phase replays the backlog suffix
// after seq; when the backlog has truncated it, an explicit
// "gap <from>:<to>" line names the lost range and a full status
// snapshot re-anchors the client before live events flow. The live
// streamer filters events at or below the last replayed sequence
// number: the subscription is live from before the backlog is read, so
// the window between the two would otherwise be delivered twice.
func (s *Server) startWatch(fields []string, cw *connWriter,
	subp **monitor.Subscription, streamWG *sync.WaitGroup) (resp string, err error) {
	resume := len(fields) == 3 && fields[1] == "since"
	var since uint64
	if resume {
		v, perr := strconv.ParseUint(fields[2], 10, 64)
		if perr != nil {
			return "err usage: watch [since <seq>]", nil
		}
		since = v
	} else if len(fields) != 1 {
		return "err usage: watch [since <seq>]", nil
	}
	if *subp != nil {
		return "err already watching", nil
	}
	sub := s.mon.Subscribe(eventBuffer)
	*subp = sub
	// Acknowledge before the first event can be written.
	if err := cw.writeLine("ok watching"); err != nil {
		return "", err
	}
	lastSeen := since
	snapshot := !resume
	if resume {
		rep := s.mon.EventsSince(since)
		// After the catch-up phase the client is current through
		// rep.Head: every earlier event was replayed, folded into the
		// re-anchor snapshot, or named lost. (On a gap, rep.Head also
		// undoes a cursor from a previous server incarnation, which
		// must not suppress the fresh stream's lower sequence numbers.)
		lastSeen = rep.Head
		if rep.LostFrom > 0 {
			// The backlog cannot replay the client's suffix: name the
			// lost range and re-anchor with a fresh snapshot rather than
			// replay a stream with a hole in it (any retained events are
			// already folded into the snapshot).
			if err := cw.writeLine(fmt.Sprintf("gap %d:%d", rep.LostFrom, rep.LostTo)); err != nil {
				return "", err
			}
			snapshot = true
		} else {
			for _, ev := range rep.Events {
				if err := cw.writeLine(s.formatEvent(ev)); err != nil {
					return "", err
				}
			}
		}
	}
	if snapshot {
		// Snapshot taken AFTER subscribing: a transition racing the
		// subscription shows up as an event, a status line, or both —
		// never as silence — so the client's view starts authoritative.
		for _, info := range s.mon.Invariants() {
			if err := cw.writeLine(fmt.Sprintf("status %d %s %s -- %s",
				info.ID, info.Status, s.formatSpec(info.Spec), info.Detail)); err != nil {
				return "", err
			}
		}
	}
	streamWG.Add(1)
	go func(c <-chan monitor.Event, after uint64) {
		defer streamWG.Done()
		for ev := range c {
			if ev.Seq <= after {
				continue // already delivered by the catch-up replay
			}
			if cw.writeLine(s.formatEvent(ev)) != nil {
				return
			}
		}
	}(sub.C, lastSeen)
	return "", nil
}

// eventBuffer is a watch subscription's channel capacity; events beyond
// it are dropped rather than stalling mutations (the monitor counts
// drops).
const eventBuffer = 256

// formatEvent renders one transition, including the (inclusive) range of
// update sequence numbers whose delta produced it — upd=N:N, one update
// per evaluation pass — and the event's own sequence number, which a
// watcher records as its resume cursor for "watch since <seq>" /
// "events since <seq>" after a disconnect.
func (s *Server) formatEvent(ev monitor.Event) string {
	return fmt.Sprintf("event %d %s %s upd=%d:%d seq=%d -- %s",
		ev.ID, ev.Kind, s.formatSpec(ev.Spec), ev.FirstUpdate, ev.LastUpdate, ev.Seq, ev.Detail)
}

// formatSpec renders a spec for status and event lines: the canonical
// FormatSpec grammar (sink sets included, so the printed spec
// round-trips through the resolver-aware ParseSpecNamed to the
// invariant the line is actually about), with node ids replaced by
// their topology names — references that survive renumbering. NodeName
// is safe against a concurrent AddNode, so streamer goroutines may call
// this without holding the engine lock.
func (s *Server) formatSpec(spec monitor.Spec) string {
	return monitor.FormatSpecNamed(spec, s.graph.NodeName)
}

// maxBatch bounds a B request's line count, and maxBatchBytes its
// aggregate body size, so a bad client cannot make the server buffer
// unbounded input before the batch is parsed (a legitimate I line is
// under 80 bytes, so 4MB leaves generous headroom at maxBatch lines).
const (
	maxBatch      = 1 << 16
	maxBatchBytes = 4 << 20
)

// readAndApplyBatch consumes the n lines of a "B <n>" request from the
// connection, parses them and has the writer commit them as one atomic
// update (update).
//
// A bad batch header (missing, unparseable, or out-of-range size) is fatal
// to the connection: the client has already committed to sending a body the
// server cannot delimit, so continuing would execute the body lines as
// individual commands. The error response is written, then the connection
// closes. Errors inside a fully-read body keep the connection open.
func (s *Server) readAndApplyBatch(fields []string, sc *lineReader) (resp string, fatal bool) {
	if len(fields) != 2 {
		return "err usage: B <n> (closing connection: batch body undelimited)", true
	}
	count, err := strconv.Atoi(fields[1])
	if err != nil || count < 1 || count > maxBatch {
		return fmt.Sprintf("err batch size must be 1..%d (closing connection: batch body undelimited)", maxBatch), true
	}
	lines := make([]string, 0, count)
	bytes := 0
	for len(lines) < count {
		if !sc.Scan() {
			// Distinguish a genuine disconnect from a scanner error: after
			// an over-long line (or any read error) the connection may
			// still be writable, and "truncated by disconnect" would send
			// the client hunting for a network problem that isn't there.
			if err := sc.Err(); err == bufio.ErrTooLong {
				s.scanErrs.Add(1)
				return fmt.Sprintf("err batch line too long (max %d bytes; closing connection)", maxLine), true
			} else if err != nil {
				s.scanErrs.Add(1)
				return "err batch aborted by read error: " + err.Error() + " (closing connection)", true
			}
			return "err batch truncated by disconnect", true
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if bytes += len(line); bytes > maxBatchBytes {
			return fmt.Sprintf("err batch body exceeds %d bytes (closing connection)", maxBatchBytes), true
		}
		lines = append(lines, line)
	}
	// The body is fully drained before the read-only check so its lines
	// are never executed as individual commands.
	if s.replicaOf != "" {
		return errReadOnly, false
	}

	t0 := time.Now()
	ops := make([]core.BatchOp, 0, count)
	for i, line := range lines {
		op, errmsg := s.parseUpdateLine(line)
		if errmsg != "" {
			return fmt.Sprintf("err batch line %d: %s", i+1, errmsg), false
		}
		ops = append(ops, op)
	}
	return s.update(ops, "ok batch n="+strconv.Itoa(count), time.Since(t0).Nanoseconds()), false
}

// parseUpdateLine parses an I or R line of live line-protocol input
// into a batch operation (journal replay and replicas decode frames
// instead) with the one text op scanner (trace.ParseOp), and validates
// it (checkOp), so a B batch's error names the offending line;
// commitLocked holds whatever reaches it to the same validator again.
// Like checkOps, it needs no lock.
func (s *Server) parseUpdateLine(line string) (core.BatchOp, string) {
	op, msg := trace.ParseOp(line)
	if msg != "" {
		return op, msg
	}
	return op, checkOp(&op, s.graph.NumNodes(), s.graph.NumLinks())
}

// protocolCommands is the authoritative list of wire commands, sorted.
// The wireproto analyzer cross-checks it against the dispatch code
// below, the README protocol table, and the fuzz seed corpus, so a
// command cannot be added to one without the others.
//
//deltanet:dispatch
var protocolCommands = []string{
	"B", "I", "R", "W",
	"busy", "checkpoint", "dnbin", "events", "journal", "link", "node",
	"quit", "reach", "stats", "trace", "unwatch", "watch", "whatif",
}

// errReadOnly is the refusal every mutating command gets on a replica
// (node, link, I, R, B).
const errReadOnly = "err read-only replica: mutations go to the primary"

// dispatch executes one request. A mutation goes to the writer
// (ingest.go) and its reply comes back from it; read-only requests
// (including monitor registration, which only reads the data plane)
// share the read lock. owned is the calling connection's registration
// refcounts (see handle).
//
//deltanet:dispatch
func (s *Server) dispatch(line string, owned map[monitor.ID]int) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "err empty request"
	}
	s.countVerb(fields[0])
	switch fields[0] {
	case "node", "link", "I", "R":
		if s.replicaOf != "" {
			return errReadOnly // a replica's writer applies its primary's records only
		}
		if fields[0] == "node" || fields[0] == "link" {
			return s.topologyCommand(fields)
		}
		t0 := time.Now()
		op, errmsg := s.parseUpdateLine(line)
		if errmsg != "" {
			return "err " + errmsg
		}
		return s.update([]core.BatchOp{op}, "ok", time.Since(t0).Nanoseconds())
	case "trace":
		return s.traceResponse(fields)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch fields[0] {
	case "reach":
		if len(fields) != 3 {
			return "err usage: reach <src> <dst> (id or name)"
		}
		a, okA := s.resolveNode(fields[1])
		b, okB := s.resolveNode(fields[2])
		if !okA || !okB {
			return "err usage: reach <src> <dst> (id or name)"
		}
		r := check.Reachable(s.net, a, b)
		return fmt.Sprintf("ok reach %d", r.Len())
	case "whatif":
		var l netgraph.LinkID
		switch {
		case len(fields) == 2:
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 || v >= s.graph.NumLinks() {
				return "err unknown link id"
			}
			l = netgraph.LinkID(v)
		case len(fields) == 3:
			// Node-pair form, ids or names: the link between them.
			a, okA := s.resolveNode(fields[1])
			b, okB := s.resolveNode(fields[2])
			if !okA || !okB {
				return "err usage: whatif <linkID> | whatif <src> <dst>"
			}
			if l = s.graph.FindLink(a, b); l == netgraph.NoLink {
				return fmt.Sprintf("err no link %s -> %s", fields[1], fields[2])
			}
		default:
			return "err usage: whatif <linkID> | whatif <src> <dst>"
		}
		atoms, edges := check.LinkFailureCounts(s.net, l)
		return fmt.Sprintf("ok whatif atoms=%d edges=%d", atoms, edges)
	case "W":
		spec, errmsg := s.parseSpec(fields[1:])
		if errmsg != "" {
			return "err " + errmsg
		}
		id, status := s.mon.Register(spec)
		owned[id]++
		return fmt.Sprintf("ok watch %d %s", id, status)
	case "unwatch":
		if len(fields) != 2 {
			return "err usage: unwatch <id>"
		}
		id64, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return "err bad watch id"
		}
		id := monitor.ID(id64)
		// Release only a reference this connection holds. Unwatching an
		// id owned by another connection (or a dnserve preload) would
		// over-release the refcount: the other owner's bookkeeping still
		// counts the reference, so its own unwatch or disconnect sweep
		// would release it a second time and tear down a live watch.
		if owned[id] == 0 {
			if _, _, live := s.mon.Status(id); !live {
				return "err unknown watch id"
			}
			return "err watch " + fields[1] + " not owned by this connection"
		}
		s.mon.Unregister(id)
		owned[id]--
		return "ok unwatch " + fields[1]
	case "events":
		if len(fields) != 3 || fields[1] != "since" {
			return "err usage: events since <seq>"
		}
		seq, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return "err bad sequence number"
		}
		rep := s.mon.EventsSince(seq)
		n := len(rep.Events)
		if rep.LostFrom > 0 {
			n++
		}
		var b strings.Builder
		fmt.Fprintf(&b, "ok events n=%d", n)
		if rep.LostFrom > 0 {
			fmt.Fprintf(&b, "\ngap %d:%d", rep.LostFrom, rep.LostTo)
		}
		for _, ev := range rep.Events {
			b.WriteByte('\n')
			b.WriteString(s.formatEvent(ev))
		}
		return b.String()
	case "stats":
		st := s.mon.Stats()
		var b strings.Builder
		fmt.Fprintf(&b, "ok stats rules=%d atoms=%d links=%d nodes=%d watch=%d upd=%d rskip=%d ix=%d sub=%d",
			s.net.NumRules(), s.net.NumAtoms(), s.graph.NumLinks(),
			s.graph.NumNodes(), st.Registered, st.Updates,
			st.RangeSkips, s.mon.IndexBits(), st.Subgoals)
		if s.jrnl != nil {
			fmt.Fprintf(&b, " jrnl=%d", s.jrnl.End())
		}
		if s.replicaOf != "" {
			fmt.Fprintf(&b, " lag=%d", s.replicaLagBytes())
		}
		fmt.Fprintf(&b, " ring=%d", s.ing.ring.Depth())
		return b.String()
	default:
		return "err unknown command " + fields[0]
	}
}

// parseSpec parses the W command's invariant grammar — the serialized
// spec form shared with state files and the public API
// (monitor.ParseSpec), with node names accepted anywhere a numeric id
// is — and validates every node it names against the topology. Callers
// must hold at least the read lock.
func (s *Server) parseSpec(fields []string) (monitor.Spec, string) {
	const usage = "usage: W reach <a> <b> | W waypoint <a> <b> <via> | W isolated <a,...> <b,...> | W loopfree | W blackholefree [sinks=<a,...>] (nodes by id or name)"
	spec, err := monitor.ParseSpecNamed(strings.Join(fields, " "), s.lookupName)
	if err != nil {
		return nil, usage
	}
	for _, n := range monitor.SpecNodes(spec) {
		if !s.validNode(int(n)) {
			return nil, "unknown node id"
		}
	}
	return spec, ""
}

// lookupName is the monitor.NodeResolver over the server's topology.
func (s *Server) lookupName(name string) (netgraph.NodeID, bool) {
	id := s.graph.NodeByName(name)
	return id, id != netgraph.NoNode
}

// resolveNode resolves one protocol field to a node: a numeric id
// (validated against the topology) or a node name.
func (s *Server) resolveNode(f string) (netgraph.NodeID, bool) {
	if v, err := strconv.Atoi(f); err == nil {
		return netgraph.NodeID(v), s.validNode(v)
	}
	return s.lookupName(f)
}

// updateResponse renders a rule update's reply — head, then the atom
// count and the loops the update closed. It runs on the writer under
// the write lock, so it is strconv appends into one buffer, not fmt.
func (s *Server) updateResponse(head string, loops []check.Loop) string {
	b := append(make([]byte, 0, 64), head...)
	b = strconv.AppendInt(append(b, " atoms="...), int64(s.net.NumAtoms()), 10)
	b = strconv.AppendInt(append(b, " loops="...), int64(len(loops)), 10)
	for _, l := range loops {
		if iv, ok := s.net.AtomInterval(l.Atom); ok {
			b = strconv.AppendUint(append(b, " loop "...), iv.Lo, 10)
			b = strconv.AppendUint(append(b, ':'), iv.Hi, 10)
		}
	}
	return string(b)
}

func (s *Server) validNode(id int) bool { return id >= 0 && id < s.graph.NumNodes() }

// topologyCommand serves the node and link commands.
func (s *Server) topologyCommand(fields []string) string {
	if fields[0] == "node" {
		if len(fields) != 2 {
			return "err usage: node <name>"
		}
		id, err := s.AddNode(fields[1])
		if err != nil {
			return "err " + err.Error()
		}
		return fmt.Sprintf("ok node %d", id)
	}
	if len(fields) != 3 {
		return "err usage: link <srcID> <dstID>"
	}
	src, err1 := strconv.ParseInt(fields[1], 10, 32)
	dst, err2 := strconv.ParseInt(fields[2], 10, 32)
	if err1 != nil || err2 != nil {
		return "err usage: link <srcID> <dstID>"
	}
	id, err := s.AddLink(netgraph.NodeID(src), netgraph.NodeID(dst))
	switch {
	case errors.Is(err, errClosing):
		return "err " + err.Error()
	case err != nil:
		return "err unknown node id"
	}
	return fmt.Sprintf("ok link %d", id)
}
