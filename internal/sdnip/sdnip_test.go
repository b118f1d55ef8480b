package sdnip

import (
	"testing"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/topo"
	"deltanet/internal/trace"
)

func twoAds(g *netgraph.Graph) []Advertisement {
	return []Advertisement{
		{Prefix: ipnet.MustParsePrefix("10.0.0.0/16"), Egress: 0},
		{Prefix: ipnet.MustParsePrefix("20.0.0.0/24"), Egress: 2},
	}
}

func TestAdvertiseAllInstallsTrees(t *testing.T) {
	g := topo.Ring(4)
	c := NewController(g, twoAds(g))
	c.AdvertiseAll()
	ops := c.Ops()
	// Each advertisement installs a rule at every switch: the non-egress
	// switches forward toward the egress, and the egress hands off to
	// its external peer.
	if len(ops) != 2*4 {
		t.Fatalf("ops=%d want 8", len(ops))
	}
	n := core.NewNetwork(g, core.Options{})
	var d core.Delta
	for _, op := range ops {
		if err := trace.Apply(n, op, &d); err != nil {
			t.Fatal(err)
		}
	}
	// Longest-prefix priority.
	found := false
	n.Rules(func(r core.Rule) bool {
		if r.Match == ipnet.MustParsePrefix("20.0.0.0/24").Interval() && r.Priority != 24 {
			t.Fatalf("priority %d want 24", r.Priority)
		}
		found = true
		return true
	})
	if !found {
		t.Fatal("no rules installed")
	}
}

func TestFailRecoverEmitsChurnAndStaysConsistent(t *testing.T) {
	g := topo.Ring(4)
	c := NewController(g, twoAds(g))
	c.AdvertiseAll()
	base := len(c.Ops())

	// Fail a link on the active tree of egress 0: nodes reroute.
	l := g.FindLink(1, 0)
	c.FailLink(l)
	afterFail := len(c.Ops())
	if afterFail == base {
		t.Fatal("failure produced no churn")
	}
	c.RecoverLink(l)
	if len(c.Ops()) == afterFail {
		t.Fatal("recovery produced no churn")
	}

	// Replaying the full stream must be valid engine input and end with
	// every node again reaching both egresses.
	n := core.NewNetwork(g, core.Options{})
	var d core.Delta
	for i, op := range c.Ops() {
		if err := trace.Apply(n, op, &d); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	// After recovery the forwarding from node 2 for 10/16 reaches node 0.
	addr := ipnet.MustParsePrefix("10.0.0.0/16").Interval().Lo
	v := netgraph.NodeID(2)
	for hops := 0; v != 0; hops++ {
		if hops > 4 {
			t.Fatal("no path to egress after recovery")
		}
		link := n.ForwardLink(v, n.AtomOf(addr))
		if link == netgraph.NoLink {
			t.Fatalf("node %d has no rule for 10/16", v)
		}
		v = g.Link(link).Dst
	}
}

func TestFailureDuringFailureReroutesAround(t *testing.T) {
	g := topo.Ring(4)
	c := NewController(g, []Advertisement{{Prefix: ipnet.MustParsePrefix("10.0.0.0/16"), Egress: 0}})
	c.AdvertiseAll()
	// Fail both links adjacent to node 0's neighbours in one direction:
	// node 2 still reaches 0 the other way.
	c.FailLink(g.FindLink(1, 0))
	c.FailLink(g.FindLink(2, 1))
	n := core.NewNetwork(g, core.Options{})
	var d core.Delta
	for _, op := range c.Ops() {
		if err := trace.Apply(n, op, &d); err != nil {
			t.Fatal(err)
		}
	}
	addr := ipnet.MustParsePrefix("10.0.0.0/16").Interval().Lo
	v := netgraph.NodeID(2)
	for hops := 0; v != 0; hops++ {
		if hops > 4 {
			t.Fatal("no detour path")
		}
		link := n.ForwardLink(v, n.AtomOf(addr))
		if link == netgraph.NoLink {
			t.Fatalf("node %d stranded", v)
		}
		if g.Link(link).Src == 2 && g.Link(link).Dst == 1 {
			t.Fatal("failed link still used")
		}
		v = g.Link(link).Dst
	}
}

func TestInterSwitchLinks(t *testing.T) {
	g := topo.Ring(4)
	links := InterSwitchLinks(g)
	if len(links) != 4 { // one per bidirectional pair
		t.Fatalf("links=%d want 4", len(links))
	}
	g.DropLink(0)
	if got := InterSwitchLinks(g); len(got) != 4 {
		t.Fatalf("with drop link: %d", len(got))
	}
}

func TestAirtel1Trace(t *testing.T) {
	g, _ := topo.Build("airtel")
	ads := RandomAdvertisements(InterSwitchLinksSources(g), 3, 1)
	tr := Airtel1Trace(g, ads)
	if tr.Name != "airtel1" || len(tr.Ops) == 0 {
		t.Fatalf("trace %q ops=%d", tr.Name, len(tr.Ops))
	}
	replayAll(t, tr, false)
}

// InterSwitchLinksSources is a helper for tests: the distinct switches.
func InterSwitchLinksSources(g *netgraph.Graph) []netgraph.NodeID {
	return switchesOf(g)
}

func TestAirtel2TracePairCap(t *testing.T) {
	g, _ := topo.Build("airtel")
	ads := RandomAdvertisements(switchesOf(g)[:4], 2, 2)
	tr := Airtel2Trace(g, ads, 3)
	if len(tr.Ops) == 0 {
		t.Fatal("no ops")
	}
	replayAll(t, tr, false)
	// Uncapped generates more churn than capped.
	trAll := Airtel2Trace(g, RandomAdvertisements(switchesOf(g)[:4], 2, 2), 0)
	if len(trAll.Ops) <= len(tr.Ops) {
		t.Fatalf("uncapped %d <= capped %d", len(trAll.Ops), len(tr.Ops))
	}
}

func TestFourSwitchTraceInsertOnly(t *testing.T) {
	g, _ := topo.Build("4switch")
	tr := FourSwitchTrace(g, 5, 3, 9)
	if len(tr.Ops) == 0 {
		t.Fatal("no ops")
	}
	for _, op := range tr.Ops {
		if !op.Insert {
			t.Fatal("4switch must be insert-only")
		}
	}
	// Insert-only traces are loop-free at every step under the
	// controller's egress-outward install order.
	replayAll(t, tr, true)
}

func TestRandomAdvertisementsDeterministic(t *testing.T) {
	g := topo.Ring(4)
	a := RandomAdvertisements(switchesOf(g), 10, 5)
	b := RandomAdvertisements(switchesOf(g), 10, 5)
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("len %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
}

// replayAll replays a trace. With stepLoopFree, every intermediate state
// must be loop-free (holds for pure-announcement traces thanks to the
// controller's egress-outward install order); failure-churn traces may
// contain transient cross-prefix loops — the anomalies real-time checkers
// exist to flag — so for those only the converged final state is asserted
// loop-free.
func replayAll(t *testing.T, tr *trace.Trace, stepLoopFree bool) {
	t.Helper()
	n := core.NewNetwork(tr.Graph, core.Options{})
	var d core.Delta
	for i, op := range tr.Ops {
		if err := trace.Apply(n, op, &d); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if stepLoopFree {
			if loops := check.FindLoopsDelta(n, &d); len(loops) != 0 {
				t.Fatalf("op %d introduced a forwarding loop: %+v", i, loops[0])
			}
		}
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if loops := check.FindLoopsAll(n); len(loops) != 0 {
		t.Fatalf("final data plane has %d loop(s)", len(loops))
	}
}
