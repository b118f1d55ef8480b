package netgraph

import (
	"fmt"
	"testing"
)

func TestAddNode(t *testing.T) {
	g := New()
	a := g.AddNode("s1")
	b := g.AddNode("s2")
	if a == b {
		t.Fatal("distinct names share id")
	}
	if g.AddNode("s1") != a {
		t.Fatal("AddNode not idempotent per name")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes=%d", g.NumNodes())
	}
	if g.NodeByName("s2") != b || g.NodeByName("nope") != NoNode {
		t.Fatal("NodeByName wrong")
	}
	if g.NodeName(a) != "s1" {
		t.Fatalf("NodeName=%q", g.NodeName(a))
	}
	if g.NodeName(99) == "" {
		t.Fatal("NodeName out of range should still format")
	}
}

func TestAddLink(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b)
	ac := g.AddLink(a, c)
	ba := g.AddLink(b, a)
	if g.AddLink(a, b) != ab {
		t.Fatal("duplicate link not reused")
	}
	if g.NumLinks() != 3 {
		t.Fatalf("NumLinks=%d", g.NumLinks())
	}
	if g.FindLink(a, b) != ab || g.FindLink(b, c) != NoLink {
		t.Fatal("FindLink wrong")
	}
	l := g.Link(ab)
	if l.Src != a || l.Dst != b || l.ID != ab {
		t.Fatalf("Link record %+v", l)
	}
	if len(g.Out(a)) != 2 || len(g.In(a)) != 1 {
		t.Fatalf("adjacency: out=%v in=%v", g.Out(a), g.In(a))
	}
	_ = ac
	_ = ba
	if len(g.Links()) != 3 {
		t.Fatal("Links() wrong length")
	}
}

func TestDropLink(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if g.DropNode() != NoNode {
		t.Fatal("drop node should not exist yet")
	}
	da := g.DropLink(a)
	if g.DropLink(a) != da {
		t.Fatal("DropLink not idempotent")
	}
	db := g.DropLink(b)
	if da == db {
		t.Fatal("per-source drop links must differ")
	}
	sink := g.DropNode()
	if sink == NoNode {
		t.Fatal("drop node missing")
	}
	if len(g.Out(sink)) != 0 {
		t.Fatal("drop sink must have no out-edges")
	}
	if !g.IsDropLink(da) || !g.IsDropLink(db) {
		t.Fatal("IsDropLink false negative")
	}
	ab := g.AddLink(a, b)
	if g.IsDropLink(ab) {
		t.Fatal("IsDropLink false positive")
	}
}

func TestIsDropLinkWithoutSink(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	ab := g.AddLink(a, b)
	if g.IsDropLink(ab) {
		t.Fatal("IsDropLink without sink")
	}
}

func TestPortNode(t *testing.T) {
	g := New()
	p1 := g.PortNode("s1", 1)
	p2 := g.PortNode("s1", 2)
	if p1 == p2 {
		t.Fatal("ports collapsed")
	}
	if g.PortNode("s1", 1) != p1 {
		t.Fatal("PortNode not stable")
	}
	if g.NodeName(p1) != "s1@1" {
		t.Fatalf("port node name %q", g.NodeName(p1))
	}
}

func TestClone(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddLink(a, b)
	g.DropLink(a)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumLinks() != g.NumLinks() {
		t.Fatal("clone size mismatch")
	}
	// Divergence.
	c.AddNode("x")
	c.AddLink(b, a)
	if g.NumNodes() == c.NumNodes() || g.NumLinks() == c.NumLinks() {
		t.Fatal("clone aliases original")
	}
	if c.NodeByName("a") != a || c.FindLink(a, b) == NoLink {
		t.Fatal("clone contents wrong")
	}
	if !c.IsDropLink(c.DropLink(a)) {
		t.Fatal("clone drop state wrong")
	}
}

// TestSizeCountersForLocklessAdmission reads NumNodes and NumLinks while
// the one writer adds nodes, links and drop links, as the server's
// admission does. Under -race the reads must be clean, every node a
// reader counts must already be named, and the link count never falls.
func TestSizeCountersForLocklessAdmission(t *testing.T) {
	g := New()
	hub := g.AddNode("hub")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			v := g.AddNode(fmt.Sprint("n", i))
			g.AddLink(v, hub)
			g.DropLink(v)
		}
	}()
	lastLinks := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		if n := g.NumNodes(); g.NodeName(NodeID(n-1)) == fmt.Sprintf("node#%d", n-1) {
			t.Fatalf("NumNodes %d counts a node without a name", n)
		}
		l := g.NumLinks()
		if l < lastLinks {
			t.Fatalf("NumLinks went back from %d to %d", lastLinks, l)
		}
		lastLinks = l
	}
	if g.NumNodes() != 502 || g.NumLinks() != 1000 {
		t.Fatalf("nodes=%d links=%d, want 502 and 1000", g.NumNodes(), g.NumLinks())
	}
}
