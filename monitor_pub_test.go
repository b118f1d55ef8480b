package deltanet

import (
	"testing"
)

// chain3 builds a -> b -> c and returns the checker, switches, and links.
func chain3(t *testing.T) (*Checker, [3]SwitchID, [2]LinkID) {
	t.Helper()
	c := New()
	a := c.AddSwitch("a")
	b := c.AddSwitch("b")
	d := c.AddSwitch("c")
	return c, [3]SwitchID{a, b, d}, [2]LinkID{c.AddLink(a, b), c.AddLink(b, d)}
}

// TestMonitorThroughChecker: invariants registered on Checker.Monitor()
// produce transition events in every Report without further plumbing.
func TestMonitorThroughChecker(t *testing.T) {
	c, sw, _ := chain3(t)
	m := c.Monitor()
	if m != c.Monitor() {
		t.Fatal("Monitor() not idempotent")
	}
	id, st := m.Register(WatchReachable(sw[0], sw[2]))
	if st != InvariantViolated {
		t.Fatalf("initial status: %v", st)
	}

	rep, err := c.InsertPrefixRule(1, sw[0], 0, "10.0.0.0/8", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 0 {
		t.Fatalf("half a path caused events: %v", rep.Events)
	}
	rep, err = c.InsertPrefixRule(2, sw[1], 1, "10.0.0.0/8", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 1 || rep.Events[0].Kind != MonitorCleared || rep.Events[0].ID != id {
		t.Fatalf("events: %v", rep.Events)
	}

	rep, err = c.RemoveRule(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 1 || rep.Events[0].Kind != MonitorViolation {
		t.Fatalf("events after remove: %v", rep.Events)
	}
}

// TestMonitorThroughBatch: one atomic batch reports the transitions of
// its merged delta in BatchReport.Events.
func TestMonitorThroughBatch(t *testing.T) {
	c, sw, links := chain3(t)
	m := c.Monitor()
	m.Register(WatchReachable(sw[0], sw[2]))
	m.Register(WatchWaypoint(sw[0], sw[2], sw[1]))
	m.Register(WatchLoopFree())
	m.Register(WatchBlackHoleFree(map[SwitchID]bool{sw[2]: true}))
	m.Register(WatchIsolated([]SwitchID{sw[0]}, []SwitchID{sw[2]}))

	prefix := MustParseInterval(t, "10.0.0.0/8")
	rep, err := c.ApplyBatch([]BatchOp{
		InsertOp(Rule{ID: 1, Source: sw[0], Link: links[0], Match: prefix, Priority: 1}),
		InsertOp(Rule{ID: 2, Source: sw[1], Link: links[1], Match: prefix, Priority: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reachable clears; Isolated(a, c) becomes violated in the same batch.
	var cleared, violated int
	for _, ev := range rep.Events {
		switch ev.Kind {
		case MonitorCleared:
			cleared++
		case MonitorViolation:
			violated++
		}
	}
	if cleared != 1 || violated != 1 {
		t.Fatalf("batch events: %v", rep.Events)
	}
}

// MustParseInterval converts a CIDR string for test literals.
func MustParseInterval(t *testing.T, cidr string) Interval {
	t.Helper()
	p, err := ParsePrefix(cidr)
	if err != nil {
		t.Fatal(err)
	}
	return p.Interval()
}

// TestCheckerSnapshotRestoreInvariants: the public kill/restart path —
// Snapshot/SnapshotInvariants on a live checker, Restore/
// RestoreInvariants into a fresh one over the same topology — brings
// every standing invariant back with the verdict a from-scratch
// evaluation gives, and the restored monitor keeps checking
// incrementally.
func TestCheckerSnapshotRestoreInvariants(t *testing.T) {
	c, sw, _ := chain3(t)
	if c.SnapshotInvariants() != nil {
		t.Fatal("SnapshotInvariants before Monitor() should be nil")
	}
	m := c.Monitor()
	m.Register(WatchReachable(sw[0], sw[2]))
	m.Register(WatchWaypoint(sw[0], sw[2], sw[1]))
	m.Register(WatchLoopFree())
	m.Register(WatchBlackHoleFree(map[SwitchID]bool{sw[2]: true}))
	if _, err := c.InsertPrefixRule(1, sw[0], 0, "10.0.0.0/8", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertPrefixRule(2, sw[1], 1, "10.0.0.0/8", 10); err != nil {
		t.Fatal(err)
	}

	rules := c.Snapshot()
	specs := c.SnapshotInvariants()
	if len(specs) != 4 {
		t.Fatalf("SnapshotInvariants: %d lines, want 4: %q", len(specs), specs)
	}
	for _, line := range specs {
		inv, err := ParseInvariant(line)
		if err != nil {
			t.Fatalf("ParseInvariant(%q): %v", line, err)
		}
		if got := FormatInvariant(inv); got != line {
			t.Fatalf("round trip %q -> %q", line, got)
		}
	}

	// "Restart": fresh checker, same topology, restored rules + specs.
	c2, _, _ := chain3(t)
	if err := c2.Restore(rules); err != nil {
		t.Fatal(err)
	}
	if err := c2.RestoreInvariants(specs); err != nil {
		t.Fatal(err)
	}
	want := c.Monitor().Invariants()
	got := c2.Monitor().Invariants()
	if len(got) != len(want) {
		t.Fatalf("restored %d invariants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Status != want[i].Status || FormatInvariant(got[i].Spec) != FormatInvariant(want[i].Spec) {
			t.Fatalf("invariant %d: %v %q, want %v %q", i,
				got[i].Status, FormatInvariant(got[i].Spec),
				want[i].Status, FormatInvariant(want[i].Spec))
		}
	}

	// Still incremental after restore: breaking the path fires events.
	rep, err := c2.RemoveRule(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Fatal("restored monitor emitted no events on a breaking update")
	}

	// A bad line stops the restore with an error.
	if err := c2.RestoreInvariants([]string{"bogus 1 2"}); err == nil {
		t.Fatal("RestoreInvariants accepted garbage")
	}
}
