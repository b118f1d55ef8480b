package server

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

// monApply hands the server's monitor a delta the test produced on the
// network directly, the way a caller that ran no loop check does.
func monApply(s *Server, d *core.Delta) []monitor.Event {
	return s.Monitor().ApplyWithLoops(d, nil, false)
}

// startServer returns a running server, its address, and a cleanup func.
func startServer(t *testing.T, opts ...Option) (*Server, string, func()) {
	t.Helper()
	s := New(opts...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	cleanup := func() {
		if err := s.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return s, l.Addr().String(), cleanup
}

// client is a tiny synchronous protocol client for tests.
type client struct {
	conn net.Conn
	r    *bufio.Scanner
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, r: bufio.NewScanner(conn)}
}

func (c *client) roundTrip(t *testing.T, req string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, req); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no response to %q: %v", req, c.r.Err())
	}
	return c.r.Text()
}

func (c *client) close() { c.conn.Close() }

func TestProtocolSession(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()

	if got := c.roundTrip(t, "node s1"); got != "ok node 0" {
		t.Fatalf("node: %q", got)
	}
	if got := c.roundTrip(t, "node s2"); got != "ok node 1" {
		t.Fatalf("node: %q", got)
	}
	if got := c.roundTrip(t, "link 0 1"); got != "ok link 0" {
		t.Fatalf("link: %q", got)
	}
	if got := c.roundTrip(t, "I 1 0 0 0 1000 10"); !strings.HasPrefix(got, "ok atoms=") {
		t.Fatalf("insert: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.HasPrefix(got, "ok stats rules=1 atoms=2 links=1 nodes=2 watch=0 upd=1 rskip=0 ix=") {
		t.Fatalf("stats: %q", got)
	}
	if got := c.roundTrip(t, "reach 0 1"); got != "ok reach 1" {
		t.Fatalf("reach: %q", got)
	}
	if got := c.roundTrip(t, "whatif 0"); !strings.HasPrefix(got, "ok whatif atoms=1") {
		t.Fatalf("whatif: %q", got)
	}
	if got := c.roundTrip(t, "R 1"); !strings.HasPrefix(got, "ok atoms=") {
		t.Fatalf("remove: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.HasPrefix(got, "ok stats rules=0 atoms=2 links=1 nodes=2 watch=0 upd=2 rskip=0 ix=") {
		t.Fatalf("stats after remove: %q", got)
	}
}

// TestLoopReportedOverWire holds every entrance to the same answer for
// the same update. An insertion that closes a cycle reports it; so does
// the less obvious case, a removal: rule 3 (a->c) shadows rule 2 (a->b),
// rule 1 sends b back to a, and removing rule 3 exposes the a->b->a
// loop. Whichever way that removal arrives — line R, a one-line B, a
// binary frame — the reply (where the entrance has one) names the loop,
// a W loopfree watcher on the primary is sent the violation, and a
// replica's own loopfree invariant turns violated.
func TestLoopReportedOverWire(t *testing.T) {
	entrances := []struct {
		name  string
		reply string // "" for the binary entrance, which acknowledges syncs, not ops
		send  func(t *testing.T, c *client) string
	}{
		{"line R", "ok atoms=2 loops=1 loop 0:100",
			func(t *testing.T, c *client) string { return c.roundTrip(t, "R 3") }},
		{"B 1", "ok batch n=1 atoms=2 loops=1 loop 0:100",
			func(t *testing.T, c *client) string { return c.sendBatch(t, []string{"R 3"}) }},
		{"binary frame", "", func(t *testing.T, c *client) string {
			if got := c.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
				t.Fatalf("handshake: %q", got)
			}
			frame := binproto.AppendSync(binproto.AppendOps(nil, []core.BatchOp{core.RemoveOp(3)}), 1)
			if _, err := c.conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if !c.r.Scan() || c.r.Text() != "ok sync 1 applied=1" {
				t.Fatalf("sync: %q %v", c.r.Text(), c.r.Err())
			}
			return ""
		}},
	}
	for _, e := range entrances {
		t.Run(e.name, func(t *testing.T) {
			primary, j, addr, stopPrimary := startJournaledPrimary(t, t.TempDir())
			defer stopPrimary()
			replica, replicaAddr, stopReplica := startReplica(t, addr)
			defer stopReplica()
			c, w, rc := dial(t, addr), dial(t, addr), dial(t, replicaAddr)
			defer c.close()
			defer w.close()
			defer rc.close()
			for _, req := range []string{"W loopfree", "watch"} {
				if got := w.roundTrip(t, req); !strings.HasPrefix(got, "ok watch") {
					t.Fatalf("%s: %q", req, got)
				}
			}
			if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), "status 0 holds loopfree") {
				t.Fatalf("watch snapshot: %q", w.r.Text())
			}
			caughtUp := func() bool { return replica.replCursor.Load() == j.End() }
			for _, req := range []string{"node a", "node b", "node c", "link 0 1", "link 1 0", "link 0 2",
				"I 1 1 1 0 100 5", "I 3 0 2 0 100 9", "I 2 0 0 0 100 5"} {
				if got := c.roundTrip(t, req); !strings.HasPrefix(got, "ok ") || strings.Contains(got, "loops=1") {
					t.Fatalf("%s: %q", req, got)
				}
			}
			// Registered once the replica streams (its first checkpoint
			// anchor would sweep an earlier registration), and before the
			// removal, so its verdict comes from the record's delta.
			waitFor(t, caughtUp)
			if got := rc.roundTrip(t, "W loopfree"); !strings.HasSuffix(got, " holds") {
				t.Fatalf("replica W loopfree: %q", got)
			}
			if got := e.send(t, c); got != e.reply {
				t.Fatalf("reply %q, want %q", got, e.reply)
			}
			if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), "event 0 violation loopfree ") ||
				!strings.HasSuffix(w.r.Text(), "-- 1 looping atom(s), e.g. [0:100) through 2 node(s)") {
				t.Fatalf("primary watcher: %q %v", w.r.Text(), w.r.Err())
			}
			waitFor(t, caughtUp)
			if got, want := stateOf(replica), stateOf(primary); got != want {
				t.Fatalf("replica diverged:\n  replica %+v\n  primary %+v", got, want)
			}
			if got := rc.roundTrip(t, "W loopfree"); !strings.HasSuffix(got, " violated") {
				t.Fatalf("replica verdict: %q", got)
			}
		})
	}

	// An insertion that closes a cycle is the plain case.
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1") // link 0: a->b
	c.roundTrip(t, "link 1 0") // link 1: b->a
	if got := c.roundTrip(t, "I 1 0 0 0 100 1"); !strings.Contains(got, "loops=0") {
		t.Fatalf("first insert: %q", got)
	}
	got := c.roundTrip(t, "I 2 1 1 0 100 1")
	if !strings.Contains(got, "loops=1") || !strings.Contains(got, "loop 0:100") {
		t.Fatalf("loop not reported: %q", got)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	cases := []string{
		"bogus",
		"node",
		"link 0 1",       // nodes don't exist yet
		"I 1 9 0 0 10 1", // unknown node
		"I 1",            // arity
		"I x 0 0 0 10 1", // non-numeric
		"R",              // arity
		"R x",            // non-numeric
		"R 42",           // unknown rule
		"reach 0",        // arity
		"whatif 99",      // unknown link
	}
	for _, req := range cases {
		if got := c.roundTrip(t, req); !strings.HasPrefix(got, "err") {
			t.Fatalf("%q -> %q, want err", req, got)
		}
	}
	// Retired commands fail closed, like any word the server never knew.
	for _, req := range []string{"burst 16 50", "flush"} {
		want := "err unknown command " + strings.Fields(req)[0]
		if got := c.roundTrip(t, req); got != want {
			t.Fatalf("%q -> %q, want %q", req, got, want)
		}
	}
	// Values a journal record (a dnbin frame) cannot carry are refused at
	// the door rather than applied and then lost to replay.
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		c.roundTrip(t, req)
	}
	for _, req := range []string{
		"I -1 0 0 0 10 1",         // negative rule id
		"I 1 0 0 0 10 -1",         // negative priority
		"I 1 0 0 0 10 2147483648", // priority past int32
		"I 1 0 -2 0 10 1",         // link below the -1 drop sentinel
		"R -1",                    // negative rule id
		"B 1\nI -1 0 0 0 10 1\n",  // and inside a batch
	} {
		if got := c.roundTrip(t, strings.TrimSuffix(req, "\n")); !strings.HasPrefix(got, "err") {
			t.Fatalf("%q -> %q, want err", req, got)
		}
	}
	if got := c.roundTrip(t, "I 1 0 0 0 10 2147483647"); !strings.HasPrefix(got, "ok") {
		t.Fatalf("largest priority: %q", got)
	}
	// The connection survives all errors.
	if got := c.roundTrip(t, "stats"); !strings.HasPrefix(got, "ok stats") {
		t.Fatalf("stats after errors: %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()

	// Topology set up by one client.
	setup := dial(t, addr)
	setup.roundTrip(t, "node hub")
	for i := 1; i <= 4; i++ {
		setup.roundTrip(t, fmt.Sprintf("node n%d", i))
		setup.roundTrip(t, fmt.Sprintf("link 0 %d", i))
	}
	setup.close()

	// Several clients insert disjoint rule ranges concurrently.
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, addr)
			defer c.close()
			for i := 0; i < 50; i++ {
				id := w*1000 + i
				lo := uint64(w)<<24 | uint64(i)<<8
				req := fmt.Sprintf("I %d 0 %d %d %d %d", id, w, lo, lo+256, i)
				if _, err := fmt.Fprintln(c.conn, req); err != nil {
					errs <- err.Error()
					return
				}
				if !c.r.Scan() {
					errs <- "no response"
					return
				}
				if resp := c.r.Text(); !strings.HasPrefix(resp, "ok") {
					errs <- resp
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	final := dial(t, addr)
	defer final.close()
	got := final.roundTrip(t, "stats")
	if !strings.Contains(got, "rules=200") {
		t.Fatalf("final stats: %q", got)
	}
}

// sendBatch writes a "B <n>" request with the given lines and returns the
// single response line.
func (c *client) sendBatch(t *testing.T, lines []string) string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "B %d\n%s\n", len(lines), strings.Join(lines, "\n")); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no batch response: %v", c.r.Err())
	}
	return c.r.Text()
}

func TestBatchCommand(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()

	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1") // link 0: a->b
	c.roundTrip(t, "link 1 0") // link 1: b->a

	// A batch that closes a loop reports it once, on one line.
	got := c.sendBatch(t, []string{
		"I 1 0 0 0 100 1",
		"I 2 1 1 0 100 1",
	})
	if !strings.HasPrefix(got, "ok batch n=2") || !strings.Contains(got, "loops=1") ||
		!strings.Contains(got, "loop 0:100") {
		t.Fatalf("batch response: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "rules=2") {
		t.Fatalf("stats after batch: %q", got)
	}

	// Mixed insert/remove batch, including an intra-batch insert+remove.
	got = c.sendBatch(t, []string{
		"R 2",
		"I 3 0 0 200 300 1",
		"R 3",
	})
	if !strings.HasPrefix(got, "ok batch n=3") || !strings.Contains(got, "loops=0") {
		t.Fatalf("mixed batch response: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "rules=1") {
		t.Fatalf("stats after mixed batch: %q", got)
	}
}

func TestBatchAtomicityOverWire(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1")

	// Second line removes an unknown rule: nothing must be applied.
	got := c.sendBatch(t, []string{"I 1 0 0 0 100 1", "R 99"})
	if !strings.HasPrefix(got, "err") {
		t.Fatalf("bad batch accepted: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "rules=0") {
		t.Fatalf("batch partially applied: %q", got)
	}

	// Parse errors name the offending line and also apply nothing.
	got = c.sendBatch(t, []string{"I 1 0 0 0 100 1", "bogus line here"})
	if !strings.HasPrefix(got, "err batch line 2") {
		t.Fatalf("parse error: %q", got)
	}
	if got := c.sendBatch(t, []string{"I 1 9 0 0 100 1"}); !strings.HasPrefix(got, "err batch line 1") {
		t.Fatalf("unknown node in batch: %q", got)
	}
	// A bad batch header leaves the body undelimited, so the server must
	// answer err and close the connection rather than risk executing body
	// lines as individual commands.
	for _, req := range []string{"B", "B 0", "B -3", "B x", "B 9999999"} {
		bad := dial(t, addr)
		if got := bad.roundTrip(t, req); !strings.HasPrefix(got, "err") {
			t.Fatalf("%q -> %q, want err", req, got)
		}
		// Anything sent after the bad header must not execute: the
		// connection is closed, not resynced.
		fmt.Fprintln(bad.conn, "I 7 0 0 0 100 1")
		if bad.r.Scan() {
			t.Fatalf("%q: connection stayed open: %q", req, bad.r.Text())
		}
		bad.close()
	}
	// The original connection (which never sent a bad header) still works,
	// and the stray I line above was never applied.
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "rules=0") {
		t.Fatalf("stats after errors: %q", got)
	}
}

// TestBatchBodySizeCap: a batch body larger than the aggregate byte cap is
// rejected and the connection closed, bounding what one client can make
// the server buffer.
func TestBatchBodySizeCap(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()

	fmt.Fprintln(c.conn, "B 10")
	junk := strings.Repeat("x", 512<<10)
	for i := 0; i < 9; i++ {
		if _, err := fmt.Fprintln(c.conn, junk); err != nil {
			break // server may already have hung up; the response check below decides
		}
	}
	if !c.r.Scan() {
		t.Fatalf("no response: %v", c.r.Err())
	}
	if got := c.r.Text(); !strings.Contains(got, "exceeds") {
		t.Fatalf("oversized body: %q", got)
	}
	if c.r.Scan() {
		t.Fatalf("connection stayed open: %q", c.r.Text())
	}
}

// TestCloseIdempotent: a second Close must not panic and must return nil
// (regression: it used to re-close the shutdown channel).
func TestCloseIdempotent(t *testing.T) {
	s := New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	if err := s.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
		t.Fatalf("first close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestConcurrentReaders: read-only requests from many connections proceed
// while mutations interleave; run under -race this also exercises the
// RWMutex split.
func TestConcurrentReaders(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	setup := dial(t, addr)
	setup.roundTrip(t, "node a")
	setup.roundTrip(t, "node b")
	setup.roundTrip(t, "link 0 1")
	setup.roundTrip(t, "I 1 0 0 0 1000 1")
	setup.close()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, addr)
			defer c.close()
			for i := 0; i < 100; i++ {
				for _, req := range []string{"stats", "reach 0 1", "whatif 0"} {
					if _, err := fmt.Fprintln(c.conn, req); err != nil {
						errs <- err.Error()
						return
					}
					if !c.r.Scan() || !strings.HasPrefix(c.r.Text(), "ok") {
						errs <- "read request failed: " + c.r.Text()
						return
					}
				}
			}
		}()
	}
	writer := dial(t, addr)
	defer writer.close()
	for i := 2; i < 40; i++ {
		lo := uint64(i) * 100
		req := fmt.Sprintf("I %d 0 0 %d %d 1", i, lo, lo+50)
		if got := writer.roundTrip(t, req); !strings.HasPrefix(got, "ok") {
			t.Fatalf("writer: %q", got)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestQuitClosesConnection(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	fmt.Fprintln(c.conn, "quit")
	if c.r.Scan() {
		t.Fatalf("got response after quit: %q", c.r.Text())
	}
}

func TestPreloadedServer(t *testing.T) {
	s := New()
	a := s.Graph().AddNode("a")
	b := s.Graph().AddNode("b")
	l := s.Graph().AddLink(a, b)
	if err := s.Network().Restore([]core.Rule{{
		ID: 1, Source: a, Link: l,
		Match: ipnet.Interval{Lo: 0, Hi: 500}, Priority: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	c := dial(t, ln.Addr().String())
	defer c.close()
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "rules=1") {
		t.Fatalf("preload missing: %q", got)
	}
}

// TestWatchRegistration: W registers standing invariants, unwatch removes
// them, stats reports the count, bad specs error.
func TestWatchRegistration(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()

	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "node c")
	c.roundTrip(t, "link 0 1") // a->b
	c.roundTrip(t, "link 1 2") // b->c

	// Empty data plane: reachability is violated, loop freedom holds.
	if got := c.roundTrip(t, "W reach 0 2"); got != "ok watch 0 violated" {
		t.Fatalf("W reach: %q", got)
	}
	if got := c.roundTrip(t, "W loopfree"); got != "ok watch 1 holds" {
		t.Fatalf("W loopfree: %q", got)
	}
	if got := c.roundTrip(t, "W waypoint 0 2 1"); got != "ok watch 2 holds" {
		t.Fatalf("W waypoint: %q", got)
	}
	if got := c.roundTrip(t, "W isolated 0 2"); got != "ok watch 3 holds" {
		t.Fatalf("W isolated: %q", got)
	}
	if got := c.roundTrip(t, "W blackholefree"); got != "ok watch 4 holds" {
		t.Fatalf("W blackholefree: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "watch=5") {
		t.Fatalf("stats: %q", got)
	}
	if got := c.roundTrip(t, "unwatch 3"); got != "ok unwatch 3" {
		t.Fatalf("unwatch: %q", got)
	}
	if got := c.roundTrip(t, "unwatch 3"); !strings.HasPrefix(got, "err") {
		t.Fatalf("double unwatch: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, "watch=4") {
		t.Fatalf("stats after unwatch: %q", got)
	}
	for _, req := range []string{
		"W", "W bogus", "W reach 0", "W reach 0 99", "W waypoint 0 1",
		"W isolated 0,x 1", "W isolated 0 99", "unwatch", "unwatch x",
	} {
		if got := c.roundTrip(t, req); !strings.HasPrefix(got, "err") {
			t.Fatalf("%q -> %q, want err", req, got)
		}
	}
}

// TestWatchStreaming: a watching connection receives transition events
// caused by another connection's mutations, interleaved with its own
// request/response traffic.
func TestWatchStreaming(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()

	setup := dial(t, addr)
	setup.roundTrip(t, "node a")
	setup.roundTrip(t, "node b")
	setup.roundTrip(t, "node c")
	setup.roundTrip(t, "link 0 1")
	setup.roundTrip(t, "link 1 2")
	setup.close()

	watcher := dial(t, addr)
	defer watcher.close()
	if got := watcher.roundTrip(t, "W reach 0 2"); got != "ok watch 0 violated" {
		t.Fatalf("register: %q", got)
	}
	if got := watcher.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}
	// The post-subscription snapshot: one status line per invariant.
	if !watcher.r.Scan() {
		t.Fatalf("no status snapshot: %v", watcher.r.Err())
	}
	if got := watcher.r.Text(); !strings.HasPrefix(got, "status 0 violated reach a c") {
		t.Fatalf("status snapshot: %q", got)
	}
	if got := watcher.roundTrip(t, "watch"); got != "err already watching" {
		t.Fatalf("double watch: %q", got)
	}

	mutator := dial(t, addr)
	defer mutator.close()
	mutator.roundTrip(t, "I 1 0 0 0 100 1") // a->b
	mutator.roundTrip(t, "I 2 1 1 0 100 1") // b->c: path complete

	if !watcher.r.Scan() {
		t.Fatalf("no event: %v", watcher.r.Err())
	}
	if got := watcher.r.Text(); !strings.HasPrefix(got, "event 0 cleared reach a c") {
		t.Fatalf("cleared event: %q", got)
	}

	// The watching connection still answers requests.
	if got := watcher.roundTrip(t, "stats"); !strings.HasPrefix(got, "ok stats") {
		t.Fatalf("stats while watching: %q", got)
	}

	mutator.roundTrip(t, "R 2")
	if !watcher.r.Scan() {
		t.Fatalf("no violation event: %v", watcher.r.Err())
	}
	if got := watcher.r.Text(); !strings.HasPrefix(got, "event 0 violation reach a c") {
		t.Fatalf("violation event: %q", got)
	}
}

// TestWatchStreamingBatch: one atomic batch produces the transition events
// of its merged delta — and none, nor an update number, when its ops
// cancel out.
func TestWatchStreamingBatch(t *testing.T) {
	s, addr, cleanup := startServer(t)
	defer cleanup()

	watcher := dial(t, addr)
	defer watcher.close()
	watcher.roundTrip(t, "node a")
	watcher.roundTrip(t, "node b")
	watcher.roundTrip(t, "node c")
	watcher.roundTrip(t, "link 0 1")
	watcher.roundTrip(t, "link 1 2")
	watcher.roundTrip(t, "W reach 0 2")
	watcher.roundTrip(t, "W loopfree")
	if got := watcher.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}
	for i := 0; i < 2; i++ { // snapshot of the two registered invariants
		if !watcher.r.Scan() || !strings.HasPrefix(watcher.r.Text(), "status ") {
			t.Fatalf("status snapshot %d: %q (%v)", i, watcher.r.Text(), watcher.r.Err())
		}
	}

	mutator := dial(t, addr)
	defer mutator.close()
	// An insert and its removal in one batch merge to an empty delta
	// before the engine's result reaches the monitor: no pass, no event.
	if got := mutator.sendBatch(t, []string{
		"I 9 0 0 0 100 1",
		"R 9",
	}); !strings.HasPrefix(got, "ok batch n=2") || !strings.Contains(got, "loops=0") {
		t.Fatalf("cancelling batch: %q", got)
	}
	if st := s.Monitor().Stats(); st.Updates != 0 || st.Events != 0 {
		t.Fatalf("cancelling batch reached the monitor: %+v", st)
	}
	if got := mutator.sendBatch(t, []string{
		"I 1 0 0 0 100 1",
		"I 2 1 1 0 100 1",
	}); !strings.HasPrefix(got, "ok batch") {
		t.Fatalf("batch: %q", got)
	}
	if !watcher.r.Scan() {
		t.Fatalf("no event: %v", watcher.r.Err())
	}
	// The first line the watcher sees is this batch's, as update 1.
	if got := watcher.r.Text(); !strings.HasPrefix(got, "event 0 cleared reach a c upd=1:1 seq=1 ") {
		t.Fatalf("batch event: %q", got)
	}
}

// TestCloseUnblocksIdleWatcher: Close must not wait for clients to
// disconnect voluntarily — a watcher idling in streaming mode (the
// designed long-lived usage) is closed by the server.
func TestCloseUnblocksIdleWatcher(t *testing.T) {
	s := New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	w := dial(t, l.Addr().String())
	defer w.close()
	w.roundTrip(t, "node a")
	if got := w.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}
	idle := dial(t, l.Addr().String()) // a plain idle connection, too
	defer idle.close()
	idle.roundTrip(t, "stats")

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil && !strings.Contains(err.Error(), "use of closed") {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on connected clients")
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Both clients observe the disconnect.
	if w.r.Scan() {
		t.Fatalf("watcher got line after close: %q", w.r.Text())
	}
}

// TestUnwatchOnDisconnect: a connection's registrations are refcounted
// and auto-released when it closes; shared registrations survive until
// every holder lets go.
func TestUnwatchOnDisconnect(t *testing.T) {
	s, addr, cleanup := startServer(t)
	defer cleanup()
	setup := dial(t, addr)
	defer setup.close()
	setup.roundTrip(t, "node a")
	setup.roundTrip(t, "node b")
	setup.roundTrip(t, "link 0 1")

	a := dial(t, addr)
	if got := a.roundTrip(t, "W reach 0 1"); got != "ok watch 0 violated" {
		t.Fatalf("a W: %q", got)
	}
	a.roundTrip(t, "W loopfree")
	b := dial(t, addr)
	// Same spec from another connection: same id, one more reference.
	if got := b.roundTrip(t, "W reach 0 1"); got != "ok watch 0 violated" {
		t.Fatalf("b W: %q", got)
	}
	if got := setup.roundTrip(t, "stats"); !strings.Contains(got, "watch=2") {
		t.Fatalf("stats: %q", got)
	}

	// a disconnects: its loopfree registration dies, but reach 0 1
	// survives on b's reference.
	a.close()
	waitFor(t, func() bool { return s.Monitor().NumRegistered() == 1 })
	if got := setup.roundTrip(t, "stats"); !strings.Contains(got, "watch=1") {
		t.Fatalf("stats after a: %q", got)
	}
	if _, _, ok := s.Monitor().Status(0); !ok {
		t.Fatal("shared registration died with first holder")
	}

	// An explicit unwatch releases b's reference; b's disconnect must not
	// release it twice (the monitor would refuse anyway — ids are not
	// reused — but the count must hit zero exactly once).
	if got := b.roundTrip(t, "unwatch 0"); got != "ok unwatch 0" {
		t.Fatalf("unwatch: %q", got)
	}
	b.close()
	waitFor(t, func() bool { return s.Monitor().NumRegistered() == 0 })
}

// waitFor polls cond for up to 2s; registration teardown runs in the
// connection handler after the socket closes, so tests must wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchEquivalence10K is the wire-level ground truth for the dependency
// index at scale: 10⁴ standing invariants registered over the protocol,
// randomized concurrent churn, and the verdict a live watch connection reconstructs from its status snapshot
// plus the event stream must match a from-scratch oracle for every
// invariant.
func TestWatchEquivalence10K(t *testing.T) {
	const numNodes, chainLen, numInv = 128, 16, 10_000
	s := New()
	g := s.Graph()
	for i := 0; i < numNodes; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	// Disjoint chains: i -> i+1 within each chain of chainLen nodes. No
	// cycles, so fixpoints stay tiny at 10⁴ invariants.
	type link struct{ id, src int }
	var links []link
	for i := 0; i < numNodes-1; i++ {
		if i%chainLen != chainLen-1 {
			links = append(links, link{int(g.AddLink(netgraph.NodeID(i), netgraph.NodeID(i+1))), i})
		}
	}
	// Sentinel pair on its own island: its event marks end-of-stream.
	sa := g.AddNode("sentinelA")
	sb := g.AddNode("sentinelB")
	sl := g.AddLink(sa, sb)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	addr := l.Addr().String()
	defer func() {
		s.Close()
		<-done
	}()

	// Register 10⁴ distinct reachability pairs, pipelined (write side in a
	// goroutine so neither end blocks on full TCP buffers).
	reg := dial(t, addr)
	defer reg.close()
	type pair struct{ from, to int }
	pairs := make([]pair, 0, numInv)
	for d := 1; len(pairs) < numInv; d++ {
		for i := 0; i < numNodes && len(pairs) < numInv; i++ {
			pairs = append(pairs, pair{i, (i + d) % numNodes})
		}
	}
	go func() {
		var b strings.Builder
		for _, p := range pairs {
			fmt.Fprintf(&b, "W reach %d %d\n", p.from, p.to)
		}
		fmt.Fprintf(&b, "W reach %d %d\n", sa, sb) // sentinel, id numInv
		io.WriteString(reg.conn, b.String())
	}()
	for i := 0; i <= numInv; i++ {
		if !reg.r.Scan() {
			t.Fatalf("registration %d: %v", i, reg.r.Err())
		}
		if want := fmt.Sprintf("ok watch %d violated", i); reg.r.Text() != want {
			t.Fatalf("registration %d: %q, want %q", i, reg.r.Text(), want)
		}
	}

	// Watcher: snapshot, then a drain goroutine owns the event stream
	// until the sentinel event arrives.
	watcher := dial(t, addr)
	defer watcher.close()
	if got := watcher.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}
	verdict := make([]bool, numInv+1) // violated?
	for i := 0; i <= numInv; i++ {
		if !watcher.r.Scan() {
			t.Fatalf("snapshot line %d: %v", i, watcher.r.Err())
		}
		f := strings.Fields(watcher.r.Text())
		if len(f) < 3 || f[0] != "status" {
			t.Fatalf("snapshot line %d: %q", i, watcher.r.Text())
		}
		id, _ := strconv.Atoi(f[1])
		verdict[id] = f[2] == "violated"
	}
	drained := make(chan error, 1)
	go func() {
		for watcher.r.Scan() {
			f := strings.Fields(watcher.r.Text())
			if len(f) < 3 || f[0] != "event" {
				drained <- fmt.Errorf("unexpected line in stream: %q", watcher.r.Text())
				return
			}
			id, _ := strconv.Atoi(f[1])
			verdict[id] = f[2] == "violation"
			if id == numInv {
				drained <- nil // the sentinel fires last, by construction
				return
			}
		}
		drained <- fmt.Errorf("stream ended: %v", watcher.r.Err())
	}()

	ctl := dial(t, addr)
	defer ctl.close()

	// Two mutators churn concurrently (disjoint rule-id spaces).
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			c := dial(t, addr)
			defer c.close()
			var live []int
			for step := 0; step < 120; step++ {
				var req string
				if len(live) > 4 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					req = fmt.Sprintf("R %d", live[i])
					live = append(live[:i], live[i+1:]...)
				} else {
					lk := links[rng.Intn(len(links))]
					id := w*100000 + step
					lo := rng.Intn(1 << 10)
					req = fmt.Sprintf("I %d %d %d %d %d %d",
						id, lk.src, lk.id, lo, lo+1+rng.Intn(1<<8), rng.Intn(4))
					live = append(live, id)
				}
				if _, err := fmt.Fprintln(c.conn, req); err != nil {
					t.Error(err)
					return
				}
				if !c.r.Scan() || !strings.HasPrefix(c.r.Text(), "ok") {
					t.Errorf("%q -> %q", req, c.r.Text())
					return
				}
			}
		}()
	}
	wg.Wait()

	// Trip the sentinel (its event is immediate and, the stream being
	// FIFO, everything before it has been delivered).
	if got := ctl.roundTrip(t, fmt.Sprintf("I 999999 %d %d 0 10 1", sa, sl)); !strings.HasPrefix(got, "ok") {
		t.Fatalf("sentinel insert: %q", got)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// Oracle: one from-scratch fixpoint per source; the server is idle
	// now, so reading the engine directly is safe.
	reachOf := map[int][]*bitset.Set{}
	for i, p := range pairs {
		r, ok := reachOf[p.from]
		if !ok {
			r = check.ReachFrom(s.Network(), netgraph.NodeID(p.from), nil)
			reachOf[p.from] = r
		}
		wantViolated := p.to >= len(r) || r[p.to] == nil || r[p.to].Empty()
		if verdict[i] != wantViolated {
			t.Fatalf("invariant %d (reach %d %d): watch stream says violated=%v, oracle %v",
				i, p.from, p.to, verdict[i], wantViolated)
		}
	}
	if verdict[numInv] {
		t.Fatal("sentinel still violated after its clearing event")
	}
	// The stream must have actually carried transitions.
	if st := s.Monitor().Stats(); st.Events == 0 {
		t.Fatalf("stats %+v: churn produced no transitions", st)
	}
}
