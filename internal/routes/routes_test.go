package routes

import (
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/topo"
)

func TestShortestPathTreeRing(t *testing.T) {
	g := topo.Ring(4)
	root := netgraph.NodeID(0)
	next := ShortestPathTree(g, root, nil)
	if next[root] != netgraph.NoLink {
		t.Fatal("root should have no next hop")
	}
	// Every other node reaches the root, and hop counts are minimal
	// (ring of 4: at most 2 hops).
	for v := netgraph.NodeID(1); int(v) < 4; v++ {
		hops := 0
		u := v
		for u != root {
			l := next[u]
			if l == netgraph.NoLink {
				t.Fatalf("node %d cannot reach root", v)
			}
			if g.Link(l).Src != u {
				t.Fatalf("tree link %d does not originate at %d", l, u)
			}
			u = g.Link(l).Dst
			hops++
			if hops > 4 {
				t.Fatalf("node %d: path too long", v)
			}
		}
		if hops > 2 {
			t.Fatalf("node %d: %d hops, want <= 2", v, hops)
		}
	}
}

func TestShortestPathTreeBlocked(t *testing.T) {
	g := topo.Ring(4)
	root := netgraph.NodeID(0)
	// Block 1->0 (and conceptually its use): node 1 must go the long
	// way around.
	l10 := g.FindLink(1, 0)
	next := ShortestPathTree(g, root, map[netgraph.LinkID]bool{l10: true})
	hops := 0
	u := netgraph.NodeID(1)
	for u != root {
		l := next[u]
		if l == l10 {
			t.Fatal("blocked link used")
		}
		u = g.Link(l).Dst
		hops++
	}
	if hops != 3 {
		t.Fatalf("detour hops=%d want 3", hops)
	}
}

func TestShortestPathTreeDisconnected(t *testing.T) {
	g := netgraph.New()
	a := g.AddNode("a")
	b := g.AddNode("b") // isolated
	next := ShortestPathTree(g, a, nil)
	if next[b] != netgraph.NoLink {
		t.Fatal("isolated node got a next hop")
	}
}

func TestRulesForPrefix(t *testing.T) {
	g := topo.Ring(4)
	c := NewCompiler(g, 1)
	p := ipnet.MustParsePrefix("10.0.0.0/16")
	rules := c.RulesForPrefixAt(p, 0, nil)
	if len(rules) != 3 { // every node except the egress
		t.Fatalf("rules=%d want 3", len(rules))
	}
	seenIDs := map[core.RuleID]bool{}
	for _, r := range rules {
		if r.Match != p.Interval() {
			t.Fatalf("rule match %v", r.Match)
		}
		if r.Priority != core.Priority(p.Len) {
			t.Fatalf("longest-prefix priority: %d", r.Priority)
		}
		if g.Link(r.Link).Src != r.Source {
			t.Fatal("rule link does not originate at source")
		}
		if seenIDs[r.ID] {
			t.Fatal("duplicate rule id")
		}
		seenIDs[r.ID] = true
	}
	if c.nextID != core.RuleID(len(rules))+1 {
		t.Fatalf("nextID=%d", c.nextID)
	}
}

func TestRandomPriority(t *testing.T) {
	g := topo.Ring(4)
	c := NewCompiler(g, 2)
	c.RandomPriority = true
	p := ipnet.MustParsePrefix("10.0.0.0/16")
	rules := c.RulesForPrefixAt(p, 0, nil)
	distinct := map[core.Priority]bool{}
	for _, r := range rules {
		distinct[r.Priority] = true
	}
	if len(distinct) < 2 {
		t.Fatal("random priorities look constant")
	}
}

func TestCompiledRulesLoadIntoEngine(t *testing.T) {
	g, err := topo.Build("berkeley")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(g, 3)
	n := core.NewNetwork(g, core.Options{})
	switches := topo.SwitchNodes(g)
	for i := 0; i < 20; i++ {
		p := ipnet.NewPrefix(uint64(10+i)<<24, 12)
		for _, r := range c.RulesForPrefix(p, switches) {
			if _, err := n.InsertRule(r); err != nil {
				t.Fatalf("rule %v: %v", r, err)
			}
		}
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if n.NumRules() == 0 {
		t.Fatal("nothing compiled")
	}
}
