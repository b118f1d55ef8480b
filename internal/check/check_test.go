package check

import (
	"math/rand"
	"testing"

	"deltanet/internal/bitset"
	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

func iv(lo, hi uint64) ipnet.Interval { return ipnet.Interval{Lo: lo, Hi: hi} }

// ring builds an n-node unidirectional ring s0 -> s1 -> ... -> s0.
func ring(n int) (*netgraph.Graph, []netgraph.NodeID, []netgraph.LinkID) {
	g := netgraph.New()
	nodes := make([]netgraph.NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(string(rune('a' + i)))
	}
	links := make([]netgraph.LinkID, n)
	for i := range nodes {
		links[i] = g.AddLink(nodes[i], nodes[(i+1)%n])
	}
	return g, nodes, links
}

func mustInsert(t *testing.T, n *core.Network, r core.Rule) *core.Delta {
	t.Helper()
	d, err := n.InsertRule(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFindLoopsDeltaDetectsRingLoop(t *testing.T) {
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	// First two rules cannot close the cycle.
	for i := 0; i < 2; i++ {
		d := mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 100), Priority: 1})
		if loops := FindLoopsDelta(n, d); len(loops) != 0 {
			t.Fatalf("premature loop: %+v", loops)
		}
	}
	// The third closes it.
	d := mustInsert(t, n, core.Rule{ID: 3, Source: nodes[2],
		Link: links[2], Match: iv(0, 100), Priority: 1})
	loops := FindLoopsDelta(n, d)
	if len(loops) == 0 {
		t.Fatal("ring loop not detected")
	}
	// The loop visits all three nodes and closes on the first.
	l := loops[0]
	if len(l.Nodes) != 4 || l.Nodes[0] != l.Nodes[3] {
		t.Fatalf("loop shape: %+v", l)
	}
	// Full scan agrees, one loop per affected atom.
	all := FindLoopsAll(n)
	if len(all) == 0 {
		t.Fatal("FindLoopsAll missed ring loop")
	}
}

func TestFindLoopsDeltaPartialOverlap(t *testing.T) {
	// Only the overlap of the three rules loops: [40:60).
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: nodes[0], Link: links[0], Match: iv(0, 60), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 2, Source: nodes[1], Link: links[1], Match: iv(40, 100), Priority: 1})
	d := mustInsert(t, n, core.Rule{ID: 3, Source: nodes[2], Link: links[2], Match: iv(20, 80), Priority: 1})
	loops := FindLoopsDelta(n, d)
	if len(loops) == 0 {
		t.Fatal("overlap loop not detected")
	}
	for _, l := range loops {
		in, ok := n.AtomInterval(l.Atom)
		if !ok {
			t.Fatalf("loop atom %d has no interval", l.Atom)
		}
		if !in.CoveredBy(iv(40, 60)) {
			t.Fatalf("loop atom %v outside the overlap [40:60)", in)
		}
	}
}

func TestLoopBrokenByRemoval(t *testing.T) {
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	for i := 0; i < 3; i++ {
		mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 100), Priority: 1})
	}
	if len(FindLoopsAll(n)) == 0 {
		t.Fatal("setup loop missing")
	}
	if _, err := n.RemoveRule(2); err != nil {
		t.Fatal(err)
	}
	if loops := FindLoopsAll(n); len(loops) != 0 {
		t.Fatalf("loop survived removal: %+v", loops)
	}
}

func TestDropBreaksLoop(t *testing.T) {
	// A higher-priority drop rule on part of the space kills the loop
	// only for that part.
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	for i := 0; i < 3; i++ {
		mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 100), Priority: 1})
	}
	mustInsert(t, n, core.Rule{ID: 4, Source: nodes[1], Link: netgraph.NoLink,
		Match: iv(0, 50), Priority: 9})
	loops := FindLoopsAll(n)
	if len(loops) == 0 {
		t.Fatal("remaining loop for [50:100) missed")
	}
	for _, l := range loops {
		in, _ := n.AtomInterval(l.Atom)
		if in.Overlaps(iv(0, 50)) {
			t.Fatalf("dropped range still loops: %v", in)
		}
	}
}

func TestFindLoopsDeltaNilAndEmpty(t *testing.T) {
	g, nodes, links := ring(2)
	n := core.NewNetwork(g, core.Options{})
	if FindLoopsDelta(n, nil) != nil {
		t.Fatal("nil delta")
	}
	d := mustInsert(t, n, core.Rule{ID: 1, Source: nodes[0], Link: links[0], Match: iv(0, 10), Priority: 1})
	// Low-priority shadowed rule produces an empty delta.
	d2 := mustInsert(t, n, core.Rule{ID: 2, Source: nodes[0], Link: links[0], Match: iv(0, 10), Priority: 0})
	if !d2.Empty() {
		t.Fatalf("shadowed insert delta: %+v", d2)
	}
	if loops := FindLoopsDelta(n, d2); len(loops) != 0 {
		t.Fatal("loops from empty delta")
	}
	_ = d
}

// TestFindLoopsDeltaMergedBatch: one batch closes 80 loops, and its merged
// delta names two sources per atom. Each range gains a label at x first,
// whose walk ends at y, then the one at c that closes the ring: every
// label's source is walked, not just an atom's first. The check reports
// one loop per atom, on exactly the atoms FindLoopsAll reports.
func TestFindLoopsDeltaMergedBatch(t *testing.T) {
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	for i := 0; i < 2; i++ {
		mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 1000), Priority: 1})
	}
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
	if len(d.Added) != 160 {
		t.Fatalf("batch added %d labels, want 160 (two per range)", len(d.Added))
	}
	all := map[intervalmap.AtomID]bool{}
	for _, l := range FindLoopsAll(n) {
		all[l.Atom] = true
	}
	loops := FindLoopsDelta(n, &d)
	seen := map[intervalmap.AtomID]bool{}
	for _, l := range loops {
		if !all[l.Atom] || seen[l.Atom] {
			t.Fatalf("loop on atom %d: FindLoopsAll reports it %v, reported before %v", l.Atom, all[l.Atom], seen[l.Atom])
		}
		seen[l.Atom] = true
	}
	if len(loops) != 80 || len(all) != 80 {
		t.Fatalf("delta check found %d loops and FindLoopsAll %d atoms, want 80 and 80", len(loops), len(all))
	}
}

func TestReachable(t *testing.T) {
	// Chain a -> b -> c with narrowing labels: a→b carries [0:100),
	// b→c carries [50:150). Reach(a, c) = [50:100).
	g := netgraph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b)
	bc := g.AddLink(b, c)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: a, Link: ab, Match: iv(0, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 2, Source: b, Link: bc, Match: iv(50, 150), Priority: 1})

	r := Reachable(n, a, c)
	if r.Empty() {
		t.Fatal("nothing reaches c")
	}
	r.ForEach(func(atom int) bool {
		in, _ := n.AtomInterval(intervalmap.AtomID(atom))
		if !in.CoveredBy(iv(50, 100)) {
			t.Fatalf("atom %v escapes [50:100)", in)
		}
		return true
	})
	// Every address in [50:100) is represented.
	for addr := uint64(50); addr < 100; addr += 7 {
		if !r.Contains(int(n.AtomOf(addr))) {
			t.Fatalf("addr %d missing from reach set", addr)
		}
	}
	// Unreachable pair.
	if !Reachable(n, c, a).Empty() {
		t.Fatal("reverse direction should be empty")
	}
}

func TestReachableMultiPathUnion(t *testing.T) {
	// Two disjoint paths a→b→d and a→c→d carrying different ranges;
	// reach(a, d) is their union.
	g := netgraph.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	ab, ac := g.AddLink(a, b), g.AddLink(a, c)
	bd, cd := g.AddLink(b, d), g.AddLink(c, d)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: a, Link: ab, Match: iv(0, 50), Priority: 2})
	mustInsert(t, n, core.Rule{ID: 2, Source: a, Link: ac, Match: iv(50, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 3, Source: b, Link: bd, Match: iv(0, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 4, Source: c, Link: cd, Match: iv(0, 100), Priority: 1})
	r := Reachable(n, a, d)
	for addr := uint64(0); addr < 100; addr += 3 {
		if !r.Contains(int(n.AtomOf(addr))) {
			t.Fatalf("addr %d should reach d", addr)
		}
	}
	if r.Contains(int(n.AtomOf(100))) {
		t.Fatal("addr 100 should not reach d")
	}
}

func TestAllPairsMatchesReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := netgraph.New()
	var nodes []netgraph.NodeID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, g.AddNode(string(rune('a'+i))))
	}
	var links []netgraph.LinkID
	for i := range nodes {
		for j := range nodes {
			if i != j && rng.Intn(3) == 0 {
				links = append(links, g.AddLink(nodes[i], nodes[j]))
			}
		}
	}
	if len(links) == 0 {
		t.Skip("degenerate random graph")
	}
	n := core.NewNetwork(g, core.Options{})
	for i := 0; i < 40; i++ {
		l := links[rng.Intn(len(links))]
		lo := uint64(rng.Intn(1000))
		r := core.Rule{ID: core.RuleID(i + 1), Source: g.Link(l).Src, Link: l,
			Match: iv(lo, lo+1+uint64(rng.Intn(1000))), Priority: core.Priority(rng.Intn(20))}
		mustInsert(t, n, r)
	}

	ap := AllPairs(n)
	app := AllPairsParallel(n, 4)
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			if !ap[nodes[i]][nodes[j]].Equal(app[nodes[i]][nodes[j]]) {
				t.Fatalf("serial vs parallel differ at (%d,%d)", i, j)
			}
			// Algorithm 3 computes flows that *enter* j from i; the
			// worklist Reachable computes the same quantity.
			want := Reachable(n, nodes[i], nodes[j])
			if !ap[nodes[i]][nodes[j]].Equal(want) {
				t.Fatalf("all-pairs (%d,%d) = %v, reachable = %v",
					i, j, ap[nodes[i]][nodes[j]], want)
			}
		}
	}
	if PairReach(ap, nodes[0], nodes[1]) != ap[nodes[0]][nodes[1]] {
		t.Fatal("PairReach")
	}
}

func TestAffectedByLinkFailure(t *testing.T) {
	// Chain a→b→c; failing b→c affects exactly what b forwards to c,
	// and the subgraph includes the upstream a→b edge restricted to it.
	g := netgraph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b)
	bc := g.AddLink(b, c)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: a, Link: ab, Match: iv(0, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 2, Source: b, Link: bc, Match: iv(50, 150), Priority: 1})

	sub := AffectedByLinkFailure(n, bc)
	if sub.Affected.Empty() {
		t.Fatal("no affected atoms")
	}
	if sub.NumEdges() != 2 { // both ab and bc intersect [50:150)
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	// Restriction: the ab edge's subgraph label excludes [0:50).
	for i, lid := range sub.Links {
		if lid == ab {
			if sub.Labels[i].Contains(int(n.AtomOf(10))) {
				t.Fatal("unaffected atom leaked into subgraph")
			}
			if !sub.Labels[i].Contains(int(n.AtomOf(75))) {
				t.Fatal("affected atom missing from subgraph")
			}
		}
	}
	// A link carrying nothing yields an empty subgraph.
	idle := g.AddLink(c, a)
	if s := AffectedByLinkFailure(n, idle); s.NumEdges() != 0 || !s.Affected.Empty() {
		t.Fatal("idle link subgraph not empty")
	}
	// Loops in subgraph: none here.
	if loops := LoopsInSubgraph(n, sub); len(loops) != 0 {
		t.Fatalf("phantom loops: %+v", loops)
	}
}

// TestLinkFailureCountsMatchSubgraph loads the inserts of every dataset
// plane and requires LinkFailureCounts to give AffectedByLinkFailure's
// atom and edge counts on every link.
func TestLinkFailureCountsMatchSubgraph(t *testing.T) {
	for _, name := range datasets.Names() {
		tr, err := datasets.Build(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		n := core.NewNetwork(tr.Graph, core.Options{})
		var ops []core.BatchOp
		for _, op := range tr.Ops {
			if op.Insert {
				ops = append(ops, op)
			}
		}
		var d core.Delta
		if err := n.ApplyBatch(ops, &d, 0); err != nil {
			t.Fatal(err)
		}
		busy := 0
		for _, l := range tr.Graph.Links() {
			sub := AffectedByLinkFailure(n, l.ID)
			atoms, edges := LinkFailureCounts(n, l.ID)
			if atoms != sub.Affected.Len() || edges != sub.NumEdges() {
				t.Fatalf("%s link %d: counts atoms=%d edges=%d, subgraph atoms=%d edges=%d",
					name, l.ID, atoms, edges, sub.Affected.Len(), sub.NumEdges())
			}
			if edges > 0 {
				busy++
			}
		}
		if busy == 0 {
			t.Fatalf("%s: no link carries traffic", name)
		}
	}
}

// TestLinkFailureCountsAllocatesNothing pins the server's whatif answer
// to zero allocations.
func TestLinkFailureCountsAllocatesNothing(t *testing.T) {
	g, nodes, links := ring(4)
	n := core.NewNetwork(g, core.Options{})
	for i := range nodes {
		mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(uint64(i)*10, 100), Priority: 1})
	}
	var atoms, edges int
	if allocs := testing.AllocsPerRun(100, func() { atoms, edges = LinkFailureCounts(n, links[3]) }); allocs != 0 {
		t.Fatalf("LinkFailureCounts allocates %.1f times per call", allocs)
	}
	if atoms == 0 || edges != 4 {
		t.Fatalf("atoms=%d edges=%d, want some atoms on all 4 edges", atoms, edges)
	}
}

func TestLoopsInSubgraphFindsLoop(t *testing.T) {
	g, nodes, links := ring(3)
	n := core.NewNetwork(g, core.Options{})
	for i := 0; i < 3; i++ {
		mustInsert(t, n, core.Rule{ID: core.RuleID(i + 1), Source: nodes[i],
			Link: links[i], Match: iv(0, 100), Priority: 1})
	}
	sub := AffectedByLinkFailure(n, links[0])
	loops := LoopsInSubgraph(n, sub)
	if len(loops) == 0 {
		t.Fatal("loop in affected subgraph missed")
	}
}

func TestFindBlackHoles(t *testing.T) {
	// a forwards [0:100) to b; b only forwards [0:50) on. [50:100)
	// vanishes at b: black hole.
	g := netgraph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b)
	bc := g.AddLink(b, c)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: a, Link: ab, Match: iv(0, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 2, Source: b, Link: bc, Match: iv(0, 50), Priority: 1})

	holes := FindBlackHoles(n, nil)
	if len(holes) != 2 {
		// b black-holes [50:100); c receives [0:50) and has no rules.
		t.Fatalf("holes = %+v", holes)
	}
	var atB *BlackHole
	for i := range holes {
		if holes[i].Node == b {
			atB = &holes[i]
		}
	}
	if atB == nil {
		t.Fatal("no hole at b")
	}
	if !atB.Atoms.Contains(int(n.AtomOf(75))) || atB.Atoms.Contains(int(n.AtomOf(25))) {
		t.Fatalf("hole atoms wrong: %v", atB.Atoms)
	}
	// Declaring c a sink hides its hole.
	holes = FindBlackHoles(n, map[netgraph.NodeID]bool{c: true})
	if len(holes) != 1 || holes[0].Node != b {
		t.Fatalf("with sink: %+v", holes)
	}
	// An explicit drop at b is not a black hole.
	mustInsert(t, n, core.Rule{ID: 3, Source: b, Link: netgraph.NoLink, Match: iv(50, 100), Priority: 1})
	holes = FindBlackHoles(n, map[netgraph.NodeID]bool{c: true})
	if len(holes) != 0 {
		t.Fatalf("drop counted as hole: %+v", holes)
	}
}

func TestIsolatedAndWaypoint(t *testing.T) {
	g := netgraph.New()
	a, w, b := g.AddNode("a"), g.AddNode("w"), g.AddNode("b")
	aw := g.AddLink(a, w)
	wb := g.AddLink(w, b)
	n := core.NewNetwork(g, core.Options{})
	mustInsert(t, n, core.Rule{ID: 1, Source: a, Link: aw, Match: iv(0, 100), Priority: 1})
	mustInsert(t, n, core.Rule{ID: 2, Source: w, Link: wb, Match: iv(0, 100), Priority: 1})

	// a and b are NOT isolated.
	if v := Isolated(n, []netgraph.NodeID{a}, []netgraph.NodeID{b}, nil); v == nil {
		t.Fatal("isolation false positive")
	}
	// Restricted to atoms outside [0:100) they are isolated.
	outside := bitset.New(0)
	outside.Add(int(n.AtomOf(200)))
	if v := Isolated(n, []netgraph.NodeID{a}, []netgraph.NodeID{b}, outside); v != nil {
		t.Fatalf("isolation false negative: %v", v)
	}
	// Everything from a to b passes w.
	if bypass := Waypoint(n, a, b, w); !bypass.Empty() {
		t.Fatalf("waypoint bypass: %v", bypass)
	}
	// Add a direct a→b path: bypass appears.
	abl := g.AddLink(a, b)
	mustInsert(t, n, core.Rule{ID: 3, Source: a, Link: abl, Match: iv(200, 300), Priority: 1})
	if bypass := Waypoint(n, a, b, w); bypass.Empty() {
		t.Fatal("bypass missed")
	}
}

// TestDeltaLoopEquivalence cross-validates the incremental loop check
// against full scans over a randomized workload: after every insertion the
// set "some loop exists" must agree.
func TestDeltaLoopEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, nodes, links := ring(5)
	// Extra chords make loops likely but not certain.
	for i := 0; i < 5; i++ {
		links = append(links, g.AddLink(nodes[rng.Intn(5)], nodes[rng.Intn(5)]))
	}
	n := core.NewNetwork(g, core.Options{})
	haveLoop := false
	for i := 0; i < 120; i++ {
		l := links[rng.Intn(len(links))]
		src := g.Link(l).Src
		if g.Link(l).Dst == src {
			continue
		}
		lo := uint64(rng.Intn(500))
		d, err := n.InsertRule(core.Rule{ID: core.RuleID(i + 1), Source: src, Link: l,
			Match: iv(lo, lo+1+uint64(rng.Intn(500))), Priority: core.Priority(rng.Intn(9))})
		if err != nil {
			t.Fatal(err)
		}
		newLoops := FindLoopsDelta(n, d)
		allLoops := FindLoopsAll(n)
		if len(newLoops) > 0 && len(allLoops) == 0 {
			t.Fatalf("op %d: delta reports loop, full scan none", i)
		}
		if !haveLoop && len(allLoops) > 0 && len(newLoops) == 0 {
			t.Fatalf("op %d: first loop appeared but delta check missed it", i)
		}
		haveLoop = len(allLoops) > 0
	}
}
