package monitor

import (
	"fmt"
	"testing"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/testutil"
)

// trunkFixture builds the prefix-locality shape atom granularity exists
// for: leaves src_i and dst_i joined through a shared trunk A -> B, each
// leaf pair exchanging only its own /slice of the address space, plus a
// detour link A -> C churn can move one slice onto. Every reach(src_i,
// dst_i) invariant depends on the trunk link, but only on its own
// slice's atoms there.
type trunkFixture struct {
	net        *core.Network
	graph      *netgraph.Graph
	src, dst   []netgraph.NodeID
	a, b, c    netgraph.NodeID
	aToB, aToC netgraph.LinkID
	width      uint64
}

func buildTrunk(t *testing.T, leaves int, opts core.Options) *trunkFixture {
	t.Helper()
	g := netgraph.New()
	f := &trunkFixture{graph: g, width: 1 << 12}
	f.a, f.b, f.c = g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	f.aToB = g.AddLink(f.a, f.b)
	f.aToC = g.AddLink(f.a, f.c)
	n := core.NewNetwork(g, opts)
	f.net = n
	var d core.Delta
	insert := func(r core.Rule) {
		t.Helper()
		if err := n.InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
	}
	insert(core.Rule{ID: 1, Source: f.a, Link: f.aToB,
		Match: ipnet.Interval{Lo: 0, Hi: uint64(leaves) * f.width}, Priority: 1})
	for i := 0; i < leaves; i++ {
		s := g.AddNode(fmt.Sprintf("src%d", i))
		e := g.AddNode(fmt.Sprintf("dst%d", i))
		f.src, f.dst = append(f.src, s), append(f.dst, e)
		slice := ipnet.Interval{Lo: uint64(i) * f.width, Hi: uint64(i+1) * f.width}
		insert(core.Rule{ID: core.RuleID(10 + 2*i), Source: s, Link: g.AddLink(s, f.a),
			Match: slice, Priority: 1})
		insert(core.Rule{ID: core.RuleID(11 + 2*i), Source: f.b, Link: g.AddLink(f.b, e),
			Match: slice, Priority: 1})
	}
	return f
}

// detour toggles a high-priority rule at A steering leaf j's slice onto
// the dead-end detour link (on=true) or back (on=false), applying the
// delta to every monitor given.
func (f *trunkFixture) detour(t *testing.T, j int, on bool, monitors ...*Monitor) {
	t.Helper()
	var d core.Delta
	id := core.RuleID(1000 + j)
	if on {
		err := f.net.InsertRuleInto(core.Rule{ID: id, Source: f.a, Link: f.aToC,
			Match: ipnet.Interval{Lo: uint64(j) * f.width, Hi: uint64(j+1) * f.width}, Priority: 99}, &d)
		if err != nil {
			t.Fatal(err)
		}
	} else if err := f.net.RemoveRuleInto(id, &d); err != nil {
		t.Fatal(err)
	}
	for _, m := range monitors {
		apply(m, &d)
	}
}

// verifyOracle compares every invariant's cached verdict against a
// from-scratch fixpoint.
func (f *trunkFixture) verifyOracle(t *testing.T, m *Monitor, ids []ID) {
	t.Helper()
	for i, id := range ids {
		r := check.ReachFrom(f.net, f.src[i], nil)
		want := Holds
		if int(f.dst[i]) >= len(r) || r[f.dst[i]] == nil || r[f.dst[i]].Empty() {
			want = Violated
		}
		got, _, ok := m.Status(id)
		if !ok {
			t.Fatalf("invariant %d lost", id)
		}
		if got != want {
			t.Fatalf("leaf %d: got %v, oracle says %v", i, got, want)
		}
	}
}

// TestAtomGranularSkipsRangeDisjointChurn is the tentpole's acceptance
// shape: every invariant's dependency set contains the trunk link, yet a
// trunk delta re-evaluates only the one whose slice it actually moves —
// with verdicts identical to the oracle and every other invariant
// accounted for in the range-skip counter.
func TestAtomGranularSkipsRangeDisjointChurn(t *testing.T) {
	const leaves = 8
	f := buildTrunk(t, leaves, core.Options{})

	atom := New(f.net, 0)
	var atomIDs []ID
	for i := 0; i < leaves; i++ {
		ai, st := atom.Register(Reachable{From: f.src[i], To: f.dst[i]})
		if st != Holds {
			t.Fatalf("leaf %d not reachable at registration", i)
		}
		atomIDs = append(atomIDs, ai)
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		for j := 0; j < leaves; j++ {
			f.detour(t, j, true, atom)
			f.verifyOracle(t, atom, atomIDs)
			f.detour(t, j, false, atom)
			f.verifyOracle(t, atom, atomIDs)
		}
	}

	as := atom.Stats()
	updates := uint64(rounds * leaves * 2)
	if as.Evaluations != updates {
		t.Fatalf("atom-granular evaluated %d, want %d (one invariant per trunk delta)",
			as.Evaluations, updates)
	}
	if as.RangeSkips != updates*(leaves-1) {
		t.Fatalf("range-skips %d, want %d", as.RangeSkips, updates*(leaves-1))
	}
}

// waypointFixture is the split/merge-stability shape: all a -> b traffic
// traverses the waypoint m, with a dormant bypass h -> x -> b that churn
// can wake up for a sub-range of an existing atom — so the waking delta
// touches only atoms minted (or recycled) after the invariant's last
// evaluation, and any sketch trusting raw atom ids would skip it.
type waypointFixture struct {
	net              *core.Network
	a, h, m, b, x    netgraph.NodeID
	hToM, hToX, xToB netgraph.LinkID
}

func buildWaypoint(t *testing.T, opts core.Options) *waypointFixture {
	t.Helper()
	g := netgraph.New()
	f := &waypointFixture{}
	f.a, f.h, f.m, f.b, f.x =
		g.AddNode("a"), g.AddNode("h"), g.AddNode("m"), g.AddNode("b"), g.AddNode("x")
	aToH := g.AddLink(f.a, f.h)
	f.hToM = g.AddLink(f.h, f.m)
	mToB := g.AddLink(f.m, f.b)
	f.hToX = g.AddLink(f.h, f.x)
	f.xToB = g.AddLink(f.x, f.b)
	f.net = core.NewNetwork(g, opts)
	var d core.Delta
	all := ipnet.Interval{Lo: 0, Hi: 4096}
	for i, r := range []core.Rule{
		{ID: 1, Source: f.a, Link: aToH, Match: all, Priority: 1},
		{ID: 2, Source: f.h, Link: f.hToM, Match: all, Priority: 1},
		{ID: 3, Source: f.m, Link: mToB, Match: all, Priority: 1},
		{ID: 4, Source: f.x, Link: f.xToB, Match: all, Priority: 1},
	} {
		if err := f.net.InsertRuleInto(r, &d); err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
	}
	return f
}

// TestRangeSketchSplitStability: after the invariant's evaluation, a new
// rule splits an existing atom and moves only the split-minted id onto
// the bypass. The id is absent from every recorded sketch — only the
// atom-birth watermark makes the monitor re-evaluate. Skipping here
// would leave the waypoint invariant reporting Holds while packets
// bypass the waypoint.
func TestRangeSketchSplitStability(t *testing.T) {
	f := buildWaypoint(t, core.Options{})
	m := New(f.net, 0)
	id, st := m.Register(Waypoint{From: f.a, To: f.b, Via: f.m})
	if st != Holds {
		t.Fatalf("waypoint should hold at registration, got %v", st)
	}

	// [1000, 2000) splits the [0, 4096) atom; the delta moves only the
	// new ids, which no sketch has seen.
	var d core.Delta
	err := f.net.InsertRuleInto(core.Rule{ID: 99, Source: f.h, Link: f.hToX,
		Match: ipnet.Interval{Lo: 1000, Hi: 2000}, Priority: 9}, &d)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NewAtoms) == 0 {
		t.Fatal("expected the insertion to split atoms")
	}
	apply(m, &d)

	if got, _, _ := m.Status(id); got != Violated {
		t.Fatalf("split-minted atom bypassed the waypoint but invariant reports %v "+
			"(range sketch skipped an atom born after its evaluation)", got)
	}
	if st := m.Stats(); st.Evaluations != 1 {
		t.Fatalf("expected exactly one re-evaluation, got %d", st.Evaluations)
	}
}

// TestRangeSketchGCRecycleStability is the merge half: with atom GC on,
// a removal merges atoms and recycles their ids, and a later insertion
// reuses a recycled id for a completely different interval — one that
// now matters to the invariant. The recycled id is below the invariant's
// id watermark and absent from its sketches; only the per-atom
// allocation stamp makes the monitor re-evaluate.
func TestRangeSketchGCRecycleStability(t *testing.T) {
	f := buildWaypoint(t, core.Options{GC: true})
	var d core.Delta
	// An unrelated high-range rule mints two atoms the invariant never
	// looks at...
	err := f.net.InsertRuleInto(core.Rule{ID: 50, Source: f.x, Link: f.xToB,
		Match: ipnet.Interval{Lo: 10000, Hi: 20000}, Priority: 5}, &d)
	if err != nil {
		t.Fatal(err)
	}

	m := New(f.net, 0)
	id, st := m.Register(Waypoint{From: f.a, To: f.b, Via: f.m})
	if st != Holds {
		t.Fatalf("waypoint should hold at registration, got %v", st)
	}

	// ...whose removal merges them away and frees their ids...
	if err := f.net.RemoveRuleInto(50, &d); err != nil {
		t.Fatal(err)
	}
	if f.net.Merges() == 0 {
		t.Fatal("expected GC to merge atoms")
	}
	apply(m, &d)

	// ...so the bypass rule's split reuses a recycled id for [1000,2000).
	maxBefore := f.net.MaxAtomID()
	err = f.net.InsertRuleInto(core.Rule{ID: 99, Source: f.h, Link: f.hToX,
		Match: ipnet.Interval{Lo: 1000, Hi: 2000}, Priority: 9}, &d)
	if err != nil {
		t.Fatal(err)
	}
	if f.net.MaxAtomID() != maxBefore {
		t.Fatal("expected the split to recycle freed atom ids, not mint new ones")
	}
	apply(m, &d)

	if got, _, _ := m.Status(id); got != Violated {
		t.Fatalf("recycled atom bypassed the waypoint but invariant reports %v "+
			"(range sketch trusted a recycled atom id)", got)
	}
}

// TestPointerFree: the index keeps one slotSketch per (link, slot) and
// trace rings keep ApplyTraces by value; the GC must never scan them.
func TestPointerFree(t *testing.T) {
	testutil.PointerFree(t, slotSketch{}, ApplyTrace{})
}
