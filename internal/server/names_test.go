package server

import (
	"bytes"
	"strings"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/monitor"
)

// TestNameAddressing: node names are accepted anywhere reach/whatif/W
// take a numeric id, resolve to the same invariants (refcount dedup
// proves it), and unknown names are errors.
func TestNameAddressing(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node edge")
	c.roundTrip(t, "node fw")
	c.roundTrip(t, "node srv")
	c.roundTrip(t, "link 0 1")
	c.roundTrip(t, "link 1 2")
	c.roundTrip(t, "I 1 0 0 0 100 1")
	c.roundTrip(t, "I 2 1 1 0 100 1")

	if got := c.roundTrip(t, "reach edge srv"); got != "ok reach 1" {
		t.Fatalf("reach by name: %q", got)
	}
	if byID := c.roundTrip(t, "reach 0 2"); byID != c.roundTrip(t, "reach edge srv") {
		t.Fatalf("name and id resolution disagree")
	}
	// Mixed id/name arguments resolve too.
	if got := c.roundTrip(t, "reach 0 srv"); got != "ok reach 1" {
		t.Fatalf("mixed reach: %q", got)
	}
	if got := c.roundTrip(t, "reach nosuch srv"); !strings.HasPrefix(got, "err") {
		t.Fatalf("unknown name accepted: %q", got)
	}

	// whatif: numeric link id, or a node pair by id or name.
	want := c.roundTrip(t, "whatif 0")
	if got := c.roundTrip(t, "whatif edge fw"); got != want {
		t.Fatalf("whatif by names: %q, want %q", got, want)
	}
	if got := c.roundTrip(t, "whatif edge srv"); !strings.HasPrefix(got, "err no link") {
		t.Fatalf("whatif non-adjacent pair: %q", got)
	}

	// W specs: a named registration is THE SAME invariant as the numeric
	// one (same id via refcount dedup), for every spec position.
	byID := c.roundTrip(t, "W waypoint 0 2 1")
	byName := c.roundTrip(t, "W waypoint edge srv fw")
	if byID != byName || !strings.HasPrefix(byID, "ok watch 0 ") {
		t.Fatalf("waypoint dedup across addressing: %q vs %q", byID, byName)
	}
	if a, b := c.roundTrip(t, "W isolated 0,1 2"), c.roundTrip(t, "W isolated edge,fw srv"); a != b {
		t.Fatalf("isolated dedup across addressing: %q vs %q", a, b)
	}
	if a, b := c.roundTrip(t, "W blackholefree sinks=2"), c.roundTrip(t, "W blackholefree sinks=srv"); a != b {
		t.Fatalf("sink dedup across addressing: %q vs %q", a, b)
	}
	if got := c.roundTrip(t, "W reach edge nosuch"); !strings.HasPrefix(got, "err") {
		t.Fatalf("unknown name in spec accepted: %q", got)
	}

	// Status and event lines echo names, and the echoed spec parses back
	// (through the resolver) to the same invariant.
	w := dial(t, addr)
	defer w.close()
	if got := w.roundTrip(t, "watch"); got != "ok watching" {
		t.Fatalf("watch: %q", got)
	}
	if !w.r.Scan() || !strings.HasPrefix(w.r.Text(), "status 0 holds waypoint edge srv fw") {
		t.Fatalf("status line names: %q (%v)", w.r.Text(), w.r.Err())
	}
	f := strings.Fields(w.r.Text())
	echoed := strings.Join(f[3:7], " ") // "waypoint edge srv fw"
	if got := c.roundTrip(t, "W "+echoed); got != byID {
		t.Fatalf("echoed spec %q re-registers as %q, want %q", echoed, got, byID)
	}
}

// TestStateSeqContinuity: the state file carries the last published
// event sequence number, so a restored server resumes numbering where
// the previous incarnation stopped — a watcher's cursor keeps meaning
// the same stream position, and the post-restart gap covers only the
// genuinely missed window.
func TestStateSeqContinuity(t *testing.T) {
	s1 := New()
	defer s1.Close()
	a := s1.Graph().AddNode("a")
	b := s1.Graph().AddNode("b")
	cNode := s1.Graph().AddNode("c")
	l0 := s1.Graph().AddLink(a, b)
	l1 := s1.Graph().AddLink(b, cNode)
	var d core.Delta
	insert := func(s *Server, r core.Rule) {
		t.Helper()
		if err := s.Network().InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
		monApply(s, &d)
	}
	remove := func(s *Server, id core.RuleID) {
		t.Helper()
		if err := s.Network().RemoveRuleInto(id, &d); err != nil {
			t.Fatal(err)
		}
		monApply(s, &d)
	}
	insert(s1, core.Rule{ID: 2, Source: b, Link: l1, Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	s1.Monitor().Register(monitor.Reachable{From: a, To: cNode})
	insert(s1, core.Rule{ID: 1, Source: a, Link: l0, Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1}) // seq 1: cleared
	remove(s1, 1)                                                                                         // seq 2: violation
	if got := s1.Monitor().LastSeq(); got != 2 {
		t.Fatalf("pre-save LastSeq = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	defer s2.Close()
	if err := s2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := s2.Monitor().LastSeq(); got != 2 {
		t.Fatalf("restored LastSeq = %d, want 2", got)
	}
	// A watcher's cursor from before the restart is seamlessly current:
	// no gap, nothing to replay.
	if rep := s2.Monitor().EventsSince(2); rep.LostFrom != 0 || len(rep.Events) != 0 {
		t.Fatalf("cursor at restored head not seamless: %+v", rep)
	}
	// The next transition continues the numbering.
	insert(s2, core.Rule{ID: 1, Source: a, Link: s2.Graph().FindLink(a, b),
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	rep := s2.Monitor().EventsSince(2)
	if len(rep.Events) != 1 || rep.Events[0].Seq != 3 {
		t.Fatalf("post-restore event numbering: %+v", rep)
	}

	// A text state file, the format older builds wrote, is refused by
	// name with the remedy, before anything is loaded.
	s3 := New()
	defer s3.Close()
	text := "deltanet-state 2\nnode a\nnode b\nlink 0 1\nrule 1 0 0 0 100 1\nseq 2\n"
	err := s3.LoadState(strings.NewReader(text))
	if err == nil || !strings.Contains(err.Error(), `"deltanet-state" text state file`) || !strings.Contains(err.Error(), "rule lines as I") {
		t.Fatalf("text state file: %v", err)
	}
	if s3.Graph().NumNodes() != 0 || s3.Monitor().LastSeq() != 0 {
		t.Fatalf("refused text state file loaded %d nodes, seq %d", s3.Graph().NumNodes(), s3.Monitor().LastSeq())
	}
}
