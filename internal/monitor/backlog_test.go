package monitor

import (
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// churnEvents builds the line4 network, registers reach a->c, installs
// the second hop, then toggles the first hop n times — each toggle is
// one verdict transition. It returns the monitor and the published
// events in order.
func churnEvents(t *testing.T, n int) (*Monitor, []Event) {
	t.Helper()
	g, nodes, links := line4()
	net := core.NewNetwork(g, core.Options{})
	m := New(net, 0)
	m.Register(Reachable{From: nodes[0], To: nodes[2]})
	mustInsert(t, net, m, core.Rule{ID: 2, Source: nodes[1], Link: links[1],
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	var all []Event
	all = append(all, toggleFirstHop(t, m, n)...)
	return m, all
}

// toggleFirstHop inserts/removes rule 1 (a->b) n times, starting with an
// insert when the rule is absent, returning the events published.
func toggleFirstHop(t *testing.T, m *Monitor, n int) []Event {
	t.Helper()
	var all []Event
	for i := 0; i < n; i++ {
		var d core.Delta
		var err error
		if m.net.NumRules() == 1 { // only the second hop installed
			err = m.net.InsertRuleInto(core.Rule{ID: 1, Source: 0, Link: 0,
				Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1}, &d)
		} else {
			err = m.net.RemoveRuleInto(1, &d)
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, apply(m, &d)...)
	}
	return all
}

// TestEventsSinceReplay: a consumer that saw a prefix of the stream gets
// exactly the missing suffix back, with no truncation reported while the
// backlog covers it.
func TestEventsSinceReplay(t *testing.T) {
	m, all := churnEvents(t, 6)
	if len(all) != 6 {
		t.Fatalf("churn produced %d events, want 6", len(all))
	}
	for since := uint64(0); since <= uint64(len(all)); since++ {
		rep := m.EventsSince(since)
		if rep.LostFrom != 0 || rep.LostTo != 0 {
			t.Fatalf("EventsSince(%d): lost %d:%d, want none", since, rep.LostFrom, rep.LostTo)
		}
		if rep.Head != uint64(len(all)) {
			t.Fatalf("EventsSince(%d): head %d, want %d", since, rep.Head, len(all))
		}
		want := all[since:]
		if len(rep.Events) != len(want) {
			t.Fatalf("EventsSince(%d): %d events, want %d", since, len(rep.Events), len(want))
		}
		for i := range rep.Events {
			if rep.Events[i].Seq != want[i].Seq || rep.Events[i].Kind != want[i].Kind || rep.Events[i].ID != want[i].ID {
				t.Fatalf("EventsSince(%d)[%d] = %+v, want %+v", since, i, rep.Events[i], want[i])
			}
		}
	}
	// A cursor ahead of the stream (another incarnation's) is reported
	// as a full gap, never as "caught up".
	if rep := m.EventsSince(99); rep.LostFrom != uint64(len(all))+1 || rep.LostTo != 99 || len(rep.Events) != 0 {
		t.Fatalf("foreign cursor: %+v, want lost %d:99", rep, len(all)+1)
	}
	if got := m.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d, want 6", got)
	}
}

// TestEventsSinceTruncation: once churn pushes the requested suffix off
// the ring, the reply names the lost range instead of silently returning
// a stream with a hole in it.
func TestEventsSinceTruncation(t *testing.T) {
	m, _ := churnEvents(t, 2)
	m.SetBacklog(2)
	toggleFirstHop(t, m, 4)
	// Events 1..6 exist; the ring holds 5,6.
	rep := m.EventsSince(0)
	if rep.LostFrom != 1 || rep.LostTo != 4 {
		t.Fatalf("lost %d:%d, want 1:4", rep.LostFrom, rep.LostTo)
	}
	if len(rep.Events) != 2 || rep.Events[0].Seq != 5 || rep.Events[1].Seq != 6 {
		t.Fatalf("retained suffix = %+v, want seqs 5,6", rep.Events)
	}
	// A cursor inside the retained window is served without a gap.
	rep = m.EventsSince(5)
	if rep.LostFrom != 0 || len(rep.Events) != 1 || rep.Events[0].Seq != 6 {
		t.Fatalf("EventsSince(5) = %+v, want seq 6 only", rep)
	}
	// A cursor at the head is a no-op.
	rep = m.EventsSince(6)
	if rep.LostFrom != 0 || len(rep.Events) != 0 || rep.Head != 6 {
		t.Fatalf("EventsSince(6) = %+v, want empty at head 6", rep)
	}
}

// TestEventsSinceDisabledBacklog: with retention off, every missed
// suffix is reported as fully lost — never silently empty.
func TestEventsSinceDisabledBacklog(t *testing.T) {
	m, _ := churnEvents(t, 0)
	m.SetBacklog(0)
	toggleFirstHop(t, m, 1)
	rep := m.EventsSince(0)
	if len(rep.Events) != 0 || rep.LostFrom != 1 || rep.LostTo != m.LastSeq() || rep.LostTo == 0 {
		t.Fatalf("disabled backlog: %+v lastSeq=%d", rep, m.LastSeq())
	}
}

// TestSetBacklogResize: shrinking keeps the newest events; growing
// preserves everything retained.
func TestSetBacklogResize(t *testing.T) {
	m, _ := churnEvents(t, 5)
	m.SetBacklog(3)
	rep := m.EventsSince(0)
	if rep.LostFrom != 1 || rep.LostTo != 2 || len(rep.Events) != 3 || rep.Events[0].Seq != 3 {
		t.Fatalf("after shrink: %+v, want seqs 3..5 lost 1:2", rep)
	}
	m.SetBacklog(10)
	rep = m.EventsSince(2)
	if rep.LostFrom != 0 || len(rep.Events) != 3 {
		t.Fatalf("after grow: %+v, want the same 3 events", rep)
	}
	if got := m.Backlog(); got != 10 {
		t.Fatalf("Backlog() = %d, want 10", got)
	}
}

// TestSnapshotRestoreRoundTrip: SnapshotSpecs → RestoreSpecs on a fresh
// monitor over an equivalently restored network reproduces every
// invariant (including BlackHoleFree's sink set, which the wire String
// form alone cannot carry) with the verdict a from-scratch evaluation
// gives.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	build := func() (*netgraph.Graph, *core.Network, []netgraph.NodeID, []netgraph.LinkID) {
		g, nodes, links := line4()
		n := core.NewNetwork(g, core.Options{})
		return g, n, nodes, links
	}
	_, n, nodes, links := build()
	var d core.Delta
	for _, r := range []core.Rule{
		{ID: 1, Source: nodes[0], Link: links[0], Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1},
		{ID: 2, Source: nodes[1], Link: links[1], Match: ipnet.Interval{Lo: 0, Hi: 50}, Priority: 1},
	} {
		if err := n.InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
	}

	m := New(n, 0)
	specs := []Spec{
		Reachable{From: nodes[0], To: nodes[2]},
		Waypoint{From: nodes[0], To: nodes[3], Via: nodes[1]},
		Isolated{GroupA: nodes[:1], GroupB: nodes[3:]},
		LoopFree{},
		BlackHoleFree{Sinks: map[netgraph.NodeID]bool{nodes[2]: true, nodes[3]: true}},
		BlackHoleFree{},
	}
	for _, s := range specs {
		m.Register(s)
	}

	saved := m.SnapshotSpecs()
	if len(saved) != len(specs) {
		t.Fatalf("SnapshotSpecs: %d lines, want %d: %q", len(saved), len(specs), saved)
	}
	// Each line round-trips through ParseSpec to the same canonical form.
	for _, line := range saved {
		s, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", line, err)
		}
		if got := FormatSpec(s); got != line {
			t.Fatalf("round trip %q -> %q", line, got)
		}
	}

	// Restore into a fresh monitor over a restored network: every
	// invariant must come back with its from-scratch verdict.
	_, n2, _, _ := build()
	if err := n2.Restore(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	m2 := New(n2, 0)
	if err := m2.RestoreSpecs(saved); err != nil {
		t.Fatal(err)
	}
	want := m.Invariants()
	got := m2.Invariants()
	if len(got) != len(want) {
		t.Fatalf("restored %d invariants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Status != want[i].Status || FormatSpec(got[i].Spec) != FormatSpec(want[i].Spec) {
			t.Fatalf("invariant %d: restored %v %q, want %v %q",
				i, got[i].Status, FormatSpec(got[i].Spec), want[i].Status, FormatSpec(want[i].Spec))
		}
	}
	// And the restored registrations dedup against the originals' keys:
	// re-registering every saved line a second time must not grow the set.
	if err := m2.RestoreSpecs(saved); err != nil {
		t.Fatal(err)
	}
	if m2.NumRegistered() != len(specs) {
		t.Fatalf("re-restore grew the monitor to %d, want %d (refcount dedup)", m2.NumRegistered(), len(specs))
	}
}
