package check

import (
	"reflect"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/netgraph"
)

// diamond builds a -> {b, c} -> d with distinct ranges on each branch.
func diamond(t *testing.T) (*core.Network, *netgraph.Graph, []netgraph.NodeID, []netgraph.LinkID) {
	t.Helper()
	g := netgraph.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	ab, ac := g.AddLink(a, b), g.AddLink(a, c)
	bd, cd := g.AddLink(b, d), g.AddLink(c, d)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: a, Link: ab, Match: iv(0, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 2, Source: a, Link: ac, Match: iv(100, 200), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 3, Source: b, Link: bd, Match: iv(0, 200), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 4, Source: c, Link: cd, Match: iv(0, 200), Priority: 1})
	return n, g, []netgraph.NodeID{a, b, c, d}, []netgraph.LinkID{ab, ac, bd, cd}
}

func TestReachableAvoiding(t *testing.T) {
	n, _, nodes, links := diamond(t)
	a, d := nodes[0], nodes[3]
	full := Reachable(n, a, d)
	if full.Empty() {
		t.Fatal("baseline reachability empty")
	}
	// Failing the upper branch (ab) kills [0:100) but not [100:200).
	after := ReachableAvoiding(n, a, d, map[netgraph.LinkID]bool{links[0]: true})
	if after.Contains(int(n.AtomOf(50))) {
		t.Fatal("[0:100) should be stranded")
	}
	if !after.Contains(int(n.AtomOf(150))) {
		t.Fatal("[100:200) should survive")
	}
	// No mask = identical to Reachable.
	if !ReachableAvoiding(n, a, d, nil).Equal(full) {
		t.Fatal("empty mask differs from Reachable")
	}
}

func TestAnalyzeFailure(t *testing.T) {
	n, _, nodes, links := diamond(t)
	a, d := nodes[0], nodes[3]
	imp := AnalyzeFailure(n, []netgraph.LinkID{links[0]}, a, d)
	if imp.Affected.Empty() {
		t.Fatal("no affected atoms")
	}
	if !imp.Stranded.Contains(int(n.AtomOf(50))) {
		t.Fatalf("stranded should include [0:100): %v", imp.Stranded)
	}
	if imp.Stranded.Contains(int(n.AtomOf(150))) {
		t.Fatal("stranded should exclude the surviving branch")
	}
	// Without probes, only Affected is computed.
	imp = AnalyzeFailure(n, []netgraph.LinkID{links[0]}, netgraph.NoNode, netgraph.NoNode)
	if !imp.Stranded.Empty() {
		t.Fatal("stranded without probe")
	}
	// Double failure of both branches strands everything.
	imp = AnalyzeFailure(n, []netgraph.LinkID{links[0], links[1]}, a, d)
	if !imp.Stranded.Equal(Reachable(n, a, d)) {
		t.Fatal("double failure should strand all traffic")
	}
}

func TestSweepDoubleFailures(t *testing.T) {
	n, _, nodes, links := diamond(t)
	a, d := nodes[0], nodes[3]
	all := SweepDoubleFailures(n, links, a, d, 0)
	if len(all) != 6 { // C(4,2)
		t.Fatalf("pairs=%d", len(all))
	}
	// Ranked by affected size, descending.
	for i := 1; i < len(all); i++ {
		if all[i].Affected.Len() > all[i-1].Affected.Len() {
			t.Fatal("not ranked")
		}
	}
	top := SweepDoubleFailures(n, links, a, d, 2)
	if len(top) != 2 {
		t.Fatalf("topK=%d", len(top))
	}
	if top[0].Affected.Len() < all[len(all)-1].Affected.Len() {
		t.Fatal("topK did not select the largest")
	}
	// The worst pair must strand everything (both branches at some stage).
	if top[0].Stranded.Empty() {
		t.Fatal("worst pair strands nothing")
	}
}

func TestFindLoopsDeltaParallelAgrees(t *testing.T) {
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	var last *core.Delta
	for i := 0; i < 3; i++ {
		last = mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 1000), Priority: 1})
	}
	serial := FindLoopsDelta(n, last)
	parallel := FindLoopsDeltaParallel(n, last, 4)
	if len(serial) == 0 || len(parallel) == 0 {
		t.Fatalf("loops: serial=%d parallel=%d", len(serial), len(parallel))
	}
	if FindLoopsDeltaParallel(n, nil, 4) != nil {
		t.Fatal("nil delta")
	}
	if got := FindLoopsDeltaParallel(n, &core.Delta{}, 4); got != nil {
		t.Fatal("empty delta")
	}
	// Workers clamp: more workers than atoms.
	if got := FindLoopsDeltaParallel(n, last, 1000); len(got) == 0 {
		t.Fatal("clamped workers missed loop")
	}

	// A batch past the parallel threshold closing many loops: the parallel
	// check returns the serial check's list, order included, every time —
	// a B reply, a LoopFree event detail and a replica's view of the same
	// delta must not depend on goroutine scheduling.
	if _, err := n.RemoveRule(3); err != nil {
		t.Fatal(err)
	}
	// Each range gains a label at x first, whose walk ends at y, then the
	// one at c that closes the ring: every label's source is walked, not
	// just an atom's first.
	xy := g.AddLink(g.AddNode("x"), g.AddNode("y"))
	var ops []core.BatchOp
	for i := 0; i < 80; i++ {
		match := iv(uint64(10*i), uint64(10*i+5))
		ops = append(ops,
			core.InsertOp(core.Rule{ID: core.RuleID(100 + i), Source: g.Link(xy).Src, Link: xy, Match: match, Priority: 1}),
			core.InsertOp(core.Rule{ID: core.RuleID(300 + i), Source: nodes[2], Link: links[2], Match: match, Priority: 1}))
	}
	var d core.Delta
	if err := n.ApplyBatch(ops, &d, 0); err != nil {
		t.Fatal(err)
	}
	want := FindLoopsDelta(n, &d)
	if len(d.Added) < parallelDeltaThreshold || len(want) != 80 {
		t.Fatalf("batch added %d labels and closed %d loops, want ≥ %d and 80", len(d.Added), len(want), parallelDeltaThreshold)
	}
	for run := 0; run < 50; run++ {
		if got := FindLoopsDeltaParallel(n, &d, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: parallel check's %d loops are not the serial check's %d, in order", run, len(got), len(want))
		}
	}
}
