package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

// TestUnwatchNotOwnedRegression: a connection must not be able to
// release a reference held by another connection or a preload. Before
// the fix, A's unwatch of an id it never registered released B's (or
// the preload's) reference while B's own bookkeeping still counted it,
// so B's disconnect sweep over-released the refcount and tore down the
// invariant for everyone.
func TestUnwatchNotOwnedRegression(t *testing.T) {
	s, addr, cleanup := startServer(t)
	defer cleanup()

	ctl := dial(t, addr)
	defer ctl.close()
	ctl.roundTrip(t, "node a")
	ctl.roundTrip(t, "node b")
	ctl.roundTrip(t, "link 0 1")

	// A dnserve-style preload holding its own reference.
	preID, _ := s.Monitor().Register(monitor.Reachable{From: 0, To: 1})

	connA := dial(t, addr)
	defer connA.close()
	connB := dial(t, addr)
	defer connB.close()

	// B watches the same spec (same id, refcount 2) plus a sentinel of
	// its own, whose teardown marks B's disconnect sweep as finished.
	if got := connB.roundTrip(t, "W reach 0 1"); got != fmt.Sprintf("ok watch %d violated", preID) {
		t.Fatalf("B register: %q", got)
	}
	connB.roundTrip(t, "W reach 1 0")

	// A, which owns nothing, must not be able to release either
	// reference. (The old code released it here: the preloaded invariant
	// died immediately, and with B registered, A's release plus B's
	// sweep double-released the refcount.)
	if got := connA.roundTrip(t, fmt.Sprintf("unwatch %d", preID)); !strings.Contains(got, "not owned") {
		t.Fatalf("A unwatch of unowned id: %q, want ownership refusal", got)
	}
	// Unknown ids still report as unknown, not as ownership errors.
	if got := connA.roundTrip(t, "unwatch 9999"); got != "err unknown watch id" {
		t.Fatalf("A unwatch of unknown id: %q", got)
	}

	// B disconnects; its sweep must release exactly its own references
	// (the sentinel's death signals the sweep ran).
	connB.close()
	waitFor(t, func() bool { return s.Monitor().NumRegistered() <= 1 })

	// The preloaded invariant survived with exactly its own reference:
	// alive now, gone after the one legitimate release.
	if _, _, ok := s.Monitor().Status(preID); !ok {
		t.Fatalf("preloaded invariant %d was torn down by a foreign unwatch", preID)
	}
	if !s.Monitor().Unregister(preID) {
		t.Fatalf("final preload release failed")
	}
	if _, _, ok := s.Monitor().Status(preID); ok {
		t.Fatalf("invariant alive after final release: refcount over-counted")
	}
}

// TestScannerErrorReported: a line over the scanner limit must produce
// an explicit error line before the connection closes — not a silent
// vanishing act.
func TestScannerErrorReported(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()

	c.roundTrip(t, "node a")
	if _, err := c.conn.Write(append(bytes.Repeat([]byte{'x'}, maxLine+2), '\n')); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no error line before close: %v", c.r.Err())
	}
	if got := c.r.Text(); !strings.HasPrefix(got, "err line too long") {
		t.Fatalf("scanner error line: %q", got)
	}
	if c.r.Scan() {
		t.Fatalf("connection stayed open after scanner error: %q", c.r.Text())
	}
}

// TestBatchScannerErrorDistinguished: a scanner error inside a batch
// body is reported as such, not mislabelled a client disconnect.
func TestBatchScannerErrorDistinguished(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1")

	if _, err := fmt.Fprintf(c.conn, "B 2\nI 1 0 0 0 100 1\n%s\n",
		bytes.Repeat([]byte{'y'}, maxLine+2)); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no error line: %v", c.r.Err())
	}
	if got := c.r.Text(); !strings.HasPrefix(got, "err batch line too long") {
		t.Fatalf("batch scanner error: %q", got)
	}
}

// eventsTopo builds a->b->c with a watched reach 0 2 and returns a
// control client. Toggling rule 1 with toggleRule then flips the
// verdict once per call.
func eventsTopo(t *testing.T, addr string) *client {
	t.Helper()
	c := dial(t, addr)
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "node c")
	c.roundTrip(t, "link 0 1")
	c.roundTrip(t, "link 1 2")
	c.roundTrip(t, "W reach 0 2")
	c.roundTrip(t, "I 2 1 1 0 100 1") // second hop, no transition yet
	return c
}

func toggleRule(t *testing.T, c *client, i int) {
	t.Helper()
	var got string
	if i%2 == 0 {
		got = c.roundTrip(t, "I 1 0 0 0 100 1")
	} else {
		got = c.roundTrip(t, "R 1")
	}
	if !strings.HasPrefix(got, "ok") {
		t.Fatalf("toggle %d: %q", i, got)
	}
}

// TestEventsSinceProtocol: the pull-replay command returns exactly the
// missed suffix, and an explicit gap line once the backlog truncates.
func TestEventsSinceProtocol(t *testing.T) {
	s, addr, cleanup := startServer(t)
	defer cleanup()
	c := eventsTopo(t, addr)
	defer c.close()
	toggleRule(t, c, 0) // seq 1: cleared
	toggleRule(t, c, 1) // seq 2: violation

	if got := c.roundTrip(t, "events since 0"); got != "ok events n=2" {
		t.Fatalf("events since 0: %q", got)
	}
	for i, want := range []string{"event 0 cleared reach a c upd=", "event 0 violation reach a c upd="} {
		if !c.r.Scan() || !strings.HasPrefix(c.r.Text(), want) {
			t.Fatalf("replay line %d: %q (%v)", i, c.r.Text(), c.r.Err())
		}
		if !strings.Contains(c.r.Text(), fmt.Sprintf("seq=%d", i+1)) {
			t.Fatalf("replay line %d missing seq: %q", i, c.r.Text())
		}
	}
	if got := c.roundTrip(t, "events since 2"); got != "ok events n=0" {
		t.Fatalf("events since head: %q", got)
	}
	// A cursor ahead of the stream — a previous server incarnation's —
	// is an explicit gap, not a silent "caught up".
	if got := c.roundTrip(t, "events since 99"); got != "ok events n=1" {
		t.Fatalf("events since foreign seq: %q", got)
	}
	if !c.r.Scan() || c.r.Text() != "gap 3:99" {
		t.Fatalf("foreign-cursor gap line: %q (%v)", c.r.Text(), c.r.Err())
	}
	if got := c.roundTrip(t, "events since x"); got != "err bad sequence number" {
		t.Fatalf("events since junk: %q", got)
	}
	if got := c.roundTrip(t, "events"); !strings.HasPrefix(got, "err usage") {
		t.Fatalf("events bare: %q", got)
	}

	// Shrink the backlog so seq 1 falls off: the gap must be explicit.
	s.Monitor().SetBacklog(1)
	if got := c.roundTrip(t, "events since 0"); got != "ok events n=2" {
		t.Fatalf("events since 0 after truncation: %q", got)
	}
	if !c.r.Scan() || c.r.Text() != "gap 1:1" {
		t.Fatalf("gap line: %q (%v)", c.r.Text(), c.r.Err())
	}
	if !c.r.Scan() || !strings.Contains(c.r.Text(), "seq=2") {
		t.Fatalf("post-gap replay: %q (%v)", c.r.Text(), c.r.Err())
	}
}

// eventSeq extracts the seq=<n> attribute from an event line.
func eventSeq(t *testing.T, line string) uint64 {
	t.Helper()
	for _, f := range strings.Fields(line) {
		if rest, ok := strings.CutPrefix(f, "seq="); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad seq in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no seq in %q", line)
	return 0
}

// TestWatchSinceReconnect: a watcher that disconnects mid-churn and
// resumes with "watch since <seq>" sees every transition exactly once —
// the replayed suffix and the live stream meet with no hole and no
// duplicate — so its folded verdict history equals an uninterrupted
// watcher's. Run with -race: the churn is concurrent with the
// disconnect/reconnect.
func TestWatchSinceReconnect(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	ctl := eventsTopo(t, addr)
	defer ctl.close()
	// Sentinel pair on its own island: its event marks end-of-churn.
	ctl.roundTrip(t, "node x")
	ctl.roundTrip(t, "node y")
	ctl.roundTrip(t, "link 3 4")
	ctl.roundTrip(t, "W reach 3 4")

	// Session 1: watch from the start, bail out after a few events. The
	// subscription is live before the churn starts: the toggles take a few
	// milliseconds in all, and a watcher that connected after them would
	// wait for its five events forever.
	w := dial(t, addr)
	if got := w.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}

	const toggles = 40
	churnDone := make(chan error, 1)
	go func() {
		m := dial(t, addr)
		defer m.close()
		for i := 0; i < toggles; i++ {
			var req string
			if i%2 == 0 {
				req = "I 1 0 0 0 100 1"
			} else {
				req = "R 1"
			}
			if _, err := fmt.Fprintln(m.conn, req); err != nil {
				churnDone <- err
				return
			}
			if !m.r.Scan() || !strings.HasPrefix(m.r.Text(), "ok") {
				churnDone <- fmt.Errorf("toggle %d: %q", i, m.r.Text())
				return
			}
		}
		if _, err := fmt.Fprintln(m.conn, "I 900 3 2 0 100 1"); err != nil {
			churnDone <- err
			return
		}
		if !m.r.Scan() || !strings.HasPrefix(m.r.Text(), "ok") {
			churnDone <- fmt.Errorf("sentinel: %q", m.r.Text())
			return
		}
		churnDone <- nil
	}()

	var lastSeq uint64
	seen := map[uint64]string{}
	firstSession := 0
	for firstSession < 5 {
		if !w.r.Scan() {
			t.Fatalf("session 1 ended early: %v", w.r.Err())
		}
		line := w.r.Text()
		if !strings.HasPrefix(line, "event ") {
			continue // status snapshot
		}
		seq := eventSeq(t, line)
		if _, dup := seen[seq]; dup {
			t.Fatalf("duplicate seq %d in session 1: %q", seq, line)
		}
		seen[seq] = line
		if seq > lastSeq {
			lastSeq = seq
		}
		firstSession++
	}
	w.close() // abrupt disconnect mid-churn

	// Session 2: resume from the recorded cursor; churn is still going.
	w2 := dial(t, addr)
	defer w2.close()
	if got := w2.roundTrip(t, fmt.Sprintf("watch since %d", lastSeq)); got != "ok watching" {
		t.Fatalf("watch since: %q", got)
	}
	for {
		if !w2.r.Scan() {
			t.Fatalf("session 2 ended early: %v", w2.r.Err())
		}
		line := w2.r.Text()
		if strings.HasPrefix(line, "gap ") {
			t.Fatalf("unexpected gap (backlog big enough): %q", line)
		}
		if strings.HasPrefix(line, "status ") {
			t.Fatalf("unexpected snapshot on seamless resume: %q", line)
		}
		if !strings.HasPrefix(line, "event ") {
			continue
		}
		seq := eventSeq(t, line)
		if _, dup := seen[seq]; dup {
			t.Fatalf("seq %d delivered twice across sessions: %q", seq, line)
		}
		seen[seq] = line
		if seq > lastSeq {
			lastSeq = seq
		}
		if strings.HasPrefix(line, "event 1 cleared reach x y") {
			break // sentinel: churn over, all prior events delivered
		}
	}
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}

	// The two sessions together saw a contiguous, duplicate-free stream
	// from the watcher's anchor to the sentinel — the same fold an
	// uninterrupted watcher makes. (Events published before session 1's
	// subscription are covered by its status snapshot, not the stream,
	// so the anchor is the first event seq seen, not necessarily 1.)
	firstSeq := lastSeq
	for seq := range seen {
		if seq < firstSeq {
			firstSeq = seq
		}
	}
	if int(lastSeq-firstSeq+1) != len(seen) {
		t.Fatalf("saw %d events, want %d (holes in the stream)", len(seen), lastSeq-firstSeq+1)
	}
	for seq := firstSeq; seq <= lastSeq; seq++ {
		if _, ok := seen[seq]; !ok {
			t.Fatalf("seq %d missing from the folded stream", seq)
		}
	}
	// Folding the per-invariant stream gives the live verdict: the last
	// toggle (toggles even => R) leaves reach 0 2 violated.
	var last string
	for seq := firstSeq; seq <= lastSeq; seq++ {
		if strings.HasPrefix(seen[seq], "event 0 ") {
			last = seen[seq]
		}
	}
	if !strings.HasPrefix(last, "event 0 violation") {
		t.Fatalf("folded verdict: %q, want violation", last)
	}
	if got := ctl.roundTrip(t, "W reach 0 2"); !strings.HasSuffix(got, "violated") {
		t.Fatalf("live verdict: %q", got)
	}
}

// TestWatchSinceGapReanchors: when the backlog no longer covers the
// resume cursor, the server says so explicitly and re-anchors the
// client with a fresh status snapshot before streaming.
func TestWatchSinceGapReanchors(t *testing.T) {
	s, addr, cleanup := startServer(t)
	defer cleanup()
	c := eventsTopo(t, addr)
	defer c.close()
	s.Monitor().SetBacklog(1)
	for i := 0; i < 4; i++ {
		toggleRule(t, c, i) // seqs 1..4; backlog retains only 4
	}

	w := dial(t, addr)
	defer w.close()
	if got := w.roundTrip(t, "watch since 1"); got != "ok watching" {
		t.Fatalf("watch since: %q", got)
	}
	if !w.r.Scan() || w.r.Text() != "gap 2:3" {
		t.Fatalf("gap line: %q (%v)", w.r.Text(), w.r.Err())
	}
	if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), "status 0 violated reach a c") {
		t.Fatalf("re-anchor snapshot: %q (%v)", w.r.Text(), w.r.Err())
	}
	// Live streaming resumes after the snapshot.
	toggleRule(t, c, 0) // seq 5: cleared
	if !w.r.Scan() || !strings.Contains(w.r.Text(), "seq=5") {
		t.Fatalf("live event after re-anchor: %q (%v)", w.r.Text(), w.r.Err())
	}

	// A cursor ahead of the stream — a watcher resuming against a
	// restarted server whose stream started over — re-anchors the same
	// way, and crucially the stale high cursor must not suppress the
	// fresh stream's low sequence numbers.
	w2 := dial(t, addr)
	defer w2.close()
	if got := w2.roundTrip(t, "watch since 99"); got != "ok watching" {
		t.Fatalf("watch since foreign: %q", got)
	}
	if !w2.r.Scan() || w2.r.Text() != "gap 6:99" {
		t.Fatalf("foreign gap line: %q (%v)", w2.r.Text(), w2.r.Err())
	}
	if !w2.r.Scan() || !strings.HasPrefix(w2.r.Text(), "status 0 holds reach a c") {
		t.Fatalf("foreign re-anchor snapshot: %q (%v)", w2.r.Text(), w2.r.Err())
	}
	toggleRule(t, c, 1) // seq 6: violation, far below the stale cursor
	if !w2.r.Scan() || !strings.Contains(w2.r.Text(), "seq=6") {
		t.Fatalf("live event after foreign re-anchor: %q (%v)", w2.r.Text(), w2.r.Err())
	}
}

// TestWatchLinesCarrySinkSet: status and event lines must render specs
// in their canonical FormatSpec form. Spec.String() omits
// BlackHoleFree's sink set, which made a sinked and a sink-less
// blackholefree watch indistinguishable on the wire — and the printed
// spec no longer parsed back (ParseSpec) to the invariant it named.
func TestWatchLinesCarrySinkSet(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()

	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "node c")
	c.roundTrip(t, "link 0 1")
	c.roundTrip(t, "link 1 2")
	// Two distinct invariants that String() renders identically.
	if got := c.roundTrip(t, "W blackholefree"); got != "ok watch 0 holds" {
		t.Fatalf("register plain: %q", got)
	}
	if got := c.roundTrip(t, "W blackholefree sinks=1"); got != "ok watch 1 holds" {
		t.Fatalf("register sinked: %q", got)
	}

	w := dial(t, addr)
	defer w.close()
	if got := w.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}
	for i, want := range []string{"status 0 holds blackholefree --", "status 1 holds blackholefree sinks=b --"} {
		if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), want) {
			t.Fatalf("status line %d: %q want prefix %q (%v)", i, w.r.Text(), want, w.r.Err())
		}
	}

	// Packets now end at node 1: a black hole for the plain invariant, a
	// sink for the other.
	c.roundTrip(t, "I 1 0 0 0 100 1")
	if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), "event 0 violation blackholefree upd=") {
		t.Fatalf("plain violation: %q (%v)", w.r.Text(), w.r.Err())
	}
	// Packets now end at node 2 instead: the sinked invariant violates
	// too, and its event line must name the sink set.
	c.roundTrip(t, "I 2 1 1 0 100 1")
	if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), "event 1 violation blackholefree sinks=b upd=") {
		t.Fatalf("sinked violation: %q (%v)", w.r.Text(), w.r.Err())
	}
}

// TestStateRoundTrip is the kill/restart oracle: a server saved with
// topology, rules (including a drop rule), and standing invariants and
// restored into a fresh process must forward identically, keep its ids,
// and re-register every invariant with the verdict a from-scratch
// evaluation gives (which is what registration at save time computed).
func TestStateRoundTrip(t *testing.T) {
	s1 := New()
	defer s1.Close()
	a := s1.Graph().AddNode("a")
	b := s1.Graph().AddNode("b")
	c := s1.Graph().AddNode("c")
	l0 := s1.Graph().AddLink(a, b)
	l1 := s1.Graph().AddLink(b, c)
	var d core.Delta
	for _, r := range []core.Rule{
		{ID: 1, Source: a, Link: l0, Match: ipnet.Interval{Lo: 0, Hi: 1000}, Priority: 5},
		{ID: 2, Source: b, Link: l1, Match: ipnet.Interval{Lo: 0, Hi: 500}, Priority: 5},
		{ID: 3, Source: b, Link: netgraph.NoLink, Match: ipnet.Interval{Lo: 500, Hi: 1000}, Priority: 5}, // drop rule
	} {
		if err := s1.Network().InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
	}
	specs := []monitor.Spec{
		monitor.Reachable{From: a, To: c},
		monitor.Waypoint{From: a, To: c, Via: b},
		monitor.Isolated{GroupA: []netgraph.NodeID{a}, GroupB: []netgraph.NodeID{c}},
		monitor.LoopFree{},
		monitor.BlackHoleFree{Sinks: map[netgraph.NodeID]bool{c: true}},
	}
	for _, sp := range specs {
		s1.Monitor().Register(sp)
	}

	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	s2 := New()
	defer s2.Close()
	if err := s2.LoadState(bytes.NewReader(saved)); err != nil {
		t.Fatalf("LoadState: %v", err)
	}

	// Topology comes back id-for-id, including the drop bookkeeping the
	// plain node/link rows cannot carry.
	if s2.Graph().NumNodes() != s1.Graph().NumNodes() || s2.Graph().NumLinks() != s1.Graph().NumLinks() {
		t.Fatalf("topology size: %d/%d nodes, %d/%d links",
			s2.Graph().NumNodes(), s1.Graph().NumNodes(), s2.Graph().NumLinks(), s1.Graph().NumLinks())
	}
	for v := 0; v < s1.Graph().NumNodes(); v++ {
		if s1.Graph().NodeName(netgraph.NodeID(v)) != s2.Graph().NodeName(netgraph.NodeID(v)) {
			t.Fatalf("node %d renamed: %q vs %q", v,
				s1.Graph().NodeName(netgraph.NodeID(v)), s2.Graph().NodeName(netgraph.NodeID(v)))
		}
	}
	if s1.Graph().DropNode() != s2.Graph().DropNode() {
		t.Fatalf("drop node: %d vs %d", s1.Graph().DropNode(), s2.Graph().DropNode())
	}
	if !core.BehaviourEqual(s1.Network(), s2.Network()) {
		t.Fatalf("restored network forwards differently")
	}

	// Every invariant re-registered with its from-scratch verdict.
	want := s1.Monitor().Invariants()
	got := s2.Monitor().Invariants()
	if len(got) != len(want) || len(got) != len(specs) {
		t.Fatalf("restored %d invariants, want %d", len(got), len(want))
	}
	for i := range want {
		if monitor.FormatSpec(got[i].Spec) != monitor.FormatSpec(want[i].Spec) || got[i].Status != want[i].Status {
			t.Fatalf("invariant %d: %q %v, want %q %v", i,
				monitor.FormatSpec(got[i].Spec), got[i].Status,
				monitor.FormatSpec(want[i].Spec), want[i].Status)
		}
	}

	// The restored server keeps checking incrementally: removing the
	// second hop must flip reach and waypoint exactly as on s1.
	var d2 core.Delta
	if err := s2.Network().RemoveRuleInto(2, &d2); err != nil {
		t.Fatal(err)
	}
	if evs := monApply(s2, &d2); len(evs) == 0 {
		t.Fatalf("restored monitor inert after mutation")
	}

	// Restoring into a non-empty server is refused.
	if err := s2.LoadState(bytes.NewReader(saved)); err == nil {
		t.Fatalf("LoadState into non-empty server succeeded")
	}
	// Garbage after the header is refused as a bad frame; a stream
	// without the header is not a state file.
	s3 := New()
	defer s3.Close()
	if err := s3.LoadState(strings.NewReader(stateHeader + "nonsense here\n")); err == nil ||
		!strings.Contains(err.Error(), "reading state") {
		t.Fatalf("garbage state error: %v", err)
	}
	if err := s3.LoadState(strings.NewReader("not a state file\n")); err == nil || !strings.Contains(err.Error(), "not a") {
		t.Fatalf("missing header: %v", err)
	}
}
