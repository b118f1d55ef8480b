package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

func iv(lo, hi uint64) ipnet.Interval { return ipnet.Interval{Lo: lo, Hi: hi} }

// TestPaperTable1 exercises the forwarding table of Table 1 (§3): a
// high-priority drop rule rH = 0.0.0.10/31 and a low-priority forward rule
// rL = 0.0.0.0/28 on one switch.
func TestPaperTable1(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	next := g.AddNode("next")
	fwd := g.AddLink(s, next)
	n := NewNetwork(g, Options{})

	dH, err := n.InsertRule(Rule{ID: 1, Source: s, Link: netgraph.NoLink,
		Match: ipnet.MustParsePrefix("0.0.0.10/31").Interval(), Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(dH.Added) != 1 {
		t.Fatalf("rH delta: %+v", dH)
	}
	if _, err = n.InsertRule(Rule{ID: 2, Source: s, Link: fwd,
		Match: ipnet.MustParsePrefix("0.0.0.0/28").Interval(), Priority: 1}); err != nil {
		t.Fatal(err)
	}

	// Figure 5: rL's interval is three atoms α0=[0:10), α1=[10:12),
	// α2=[12:16); rH's is the single atom α1.
	if got := len(n.AtomsOverlapping(iv(0, 16))); got != 3 {
		t.Fatalf("rL atoms = %d, want 3", got)
	}
	if got := len(n.AtomsOverlapping(iv(10, 12))); got != 1 {
		t.Fatalf("rH atoms = %d, want 1", got)
	}

	// Packets in [10:12) are dropped (owned by rH); the rest of [0:16)
	// flows on fwd. This is ⟦interval(rL)⟧ − ⟦interval(rH)⟧.
	for addr := uint64(0); addr < 20; addr++ {
		atom := n.AtomOf(addr)
		link := n.ForwardLink(s, atom)
		switch {
		case addr >= 10 && addr < 12:
			if !g.IsDropLink(link) {
				t.Fatalf("addr %d should be dropped, got link %d", addr, link)
			}
		case addr < 16:
			if link != fwd {
				t.Fatalf("addr %d should forward, got link %d", addr, link)
			}
		default:
			if link != netgraph.NoLink {
				t.Fatalf("addr %d should miss, got link %d", addr, link)
			}
		}
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestPaperFigure2 replays §2.1's running example: rules r1, r2, r3 with
// fully overlapping prefixes on switches s1, s2, s3, then a higher-priority
// r4 inserted at s1. The insertion must move the shared atoms from the
// s1→s2 edge to the new s1→s4 edge, leaving exactly one atom on s1→s2.
func TestPaperFigure2(t *testing.T) {
	g := netgraph.New()
	s1, s2, s3, s4 := g.AddNode("s1"), g.AddNode("s2"), g.AddNode("s3"), g.AddNode("s4")
	l12 := g.AddLink(s1, s2)
	l23 := g.AddLink(s2, s3)
	l34 := g.AddLink(s3, s4)
	l14 := g.AddLink(s1, s4)
	n := NewNetwork(g, Options{})

	// Overlapping intervals in the style of Figure 2's parallel lines:
	// r1 spans the widest range, r2 and r3 are nested within.
	must := func(r Rule) *Delta {
		d, err := n.InsertRule(r)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	must(Rule{ID: 1, Source: s1, Link: l12, Match: iv(0, 100), Priority: 1})
	must(Rule{ID: 2, Source: s2, Link: l23, Match: iv(20, 80), Priority: 1})
	must(Rule{ID: 3, Source: s3, Link: l34, Match: iv(40, 60), Priority: 1})

	atomsBefore := n.NumAtoms()
	labelBefore := n.Label(l12).Len()

	// r4 at s1, higher priority than r1, overlapping all three rules.
	d4 := must(Rule{ID: 4, Source: s1, Link: l14, Match: iv(20, 80), Priority: 9})

	// Inserting r4 creates no new boundary keys beyond 20 and 80, which
	// already exist — so no new atoms.
	if n.NumAtoms() != atomsBefore {
		t.Fatalf("atoms %d -> %d, expected unchanged", atomsBefore, n.NumAtoms())
	}
	// All atoms of [20:80) moved from l12 to l14.
	movedAtoms := len(n.AtomsOverlapping(iv(20, 80)))
	if len(d4.Added) != movedAtoms || len(d4.Removed) != movedAtoms {
		t.Fatalf("delta added=%d removed=%d want %d each", len(d4.Added), len(d4.Removed), movedAtoms)
	}
	for _, la := range d4.Added {
		if la.Link != l14 {
			t.Fatalf("added on wrong link: %+v", la)
		}
	}
	for _, la := range d4.Removed {
		if la.Link != l12 {
			t.Fatalf("removed from wrong link: %+v", la)
		}
	}
	if got := n.Label(l12).Len(); got != labelBefore-movedAtoms {
		t.Fatalf("l12 label %d want %d", got, labelBefore-movedAtoms)
	}
	if got := n.Label(l14).Len(); got != movedAtoms {
		t.Fatalf("l14 label %d want %d", got, movedAtoms)
	}
	// s2→s3 and s3→s4 untouched, as Figure 4b promises (only the
	// modified switch's rules are inspected).
	if n.Label(l23).Len() == 0 || n.Label(l34).Len() == 0 {
		t.Fatal("unrelated labels disturbed")
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestPaperRMSplitOwnership continues §3.2.1's worked example: inserting
// medium-priority rM = [8:12) between rL and rH splits atom α0 and the new
// atom's ownership must follow priority order.
func TestPaperRMSplitOwnership(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	lH, lM, lL := g.AddLink(s, a), g.AddLink(s, b), g.AddLink(s, c)
	n := NewNetwork(g, Options{})

	ins := func(id RuleID, link netgraph.LinkID, lo, hi uint64, prio Priority) *Delta {
		d, err := n.InsertRule(Rule{ID: id, Source: s, Link: link, Match: iv(lo, hi), Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ins(1, lH, 10, 12, 30)      // rH
	ins(2, lL, 0, 16, 10)       // rL
	dM := ins(3, lM, 8, 12, 20) // rM

	if len(dM.NewAtoms) != 1 {
		t.Fatalf("rM should split exactly one atom: %+v", dM.NewAtoms)
	}
	// After rM: [0:8)→rL, [8:10)→rM, [10:12)→rH, [12:16)→rL.
	cases := []struct {
		addr uint64
		link netgraph.LinkID
	}{{0, lL}, {7, lL}, {8, lM}, {9, lM}, {10, lH}, {11, lH}, {12, lL}, {15, lL}}
	for _, cse := range cases {
		if got := n.ForwardLink(s, n.AtomOf(cse.addr)); got != cse.link {
			t.Fatalf("addr %d forwards on %d want %d", cse.addr, got, cse.link)
		}
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	_ = c
}

func TestInsertErrors(t *testing.T) {
	g := netgraph.New()
	s1, s2 := g.AddNode("s1"), g.AddNode("s2")
	l21 := g.AddLink(s2, s1)
	l12 := g.AddLink(s1, s2)
	n := NewNetwork(g, Options{})

	if _, err := n.InsertRule(Rule{ID: 1, Source: s1, Link: l12, Match: iv(5, 5), Priority: 1}); err == nil {
		t.Fatal("empty match accepted")
	}
	if _, err := n.InsertRule(Rule{ID: 1, Source: s1, Link: l12, Match: iv(0, 1<<33), Priority: 1}); err == nil {
		t.Fatal("out-of-space match accepted")
	}
	if _, err := n.InsertRule(Rule{ID: 1, Source: s1, Link: l21, Match: iv(0, 10), Priority: 1}); err == nil {
		t.Fatal("foreign link accepted")
	}
	// Topology references outside the graph are errors on both update
	// paths, not index panics, and leave graph and engine untouched (a
	// drop rule on a bad source must not hang a drop link off it).
	for _, tc := range []struct {
		r    Rule
		want error
	}{
		{Rule{ID: 1, Source: s1, Link: 7, Match: iv(0, 10), Priority: 1}, ErrBadLink},
		{Rule{ID: 1, Source: s1, Link: -2, Match: iv(0, 10), Priority: 1}, ErrBadLink},
		{Rule{ID: 1, Source: 9, Link: l12, Match: iv(0, 10), Priority: 1}, ErrBadLink},
		{Rule{ID: 1, Source: 9, Link: netgraph.NoLink, Match: iv(0, 10), Priority: 1}, ErrBadNode},
		{Rule{ID: 1, Source: -1, Link: netgraph.NoLink, Match: iv(0, 10), Priority: 1}, ErrBadNode},
	} {
		if _, err := n.InsertRule(tc.r); !errors.Is(err, tc.want) {
			t.Fatalf("InsertRule(%v) = %v, want %v", tc.r, err, tc.want)
		}
		var d Delta
		if err := n.ApplyBatch([]BatchOp{InsertOp(tc.r)}, &d, 1); !errors.Is(err, tc.want) {
			t.Fatalf("ApplyBatch(%v) = %v, want %v", tc.r, err, tc.want)
		}
	}
	if g.NumNodes() != 2 || g.NumLinks() != 2 || n.NumRules() != 0 {
		t.Fatalf("refused rules changed the graph or engine: %d nodes, %d links, %d rules", g.NumNodes(), g.NumLinks(), n.NumRules())
	}
	if _, err := n.InsertRule(Rule{ID: 1, Source: s1, Link: l12, Match: iv(0, 10), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InsertRule(Rule{ID: 1, Source: s1, Link: l12, Match: iv(20, 30), Priority: 1}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := n.RemoveRule(99); err == nil {
		t.Fatal("unknown removal accepted")
	}
}

func TestInsertRemoveInverse(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	ds := []netgraph.LinkID{}
	for i := 0; i < 3; i++ {
		ds = append(ds, g.AddLink(s, g.AddNode(string(rune('a'+i)))))
	}
	n := NewNetwork(g, Options{})
	if _, err := n.InsertRule(Rule{ID: 1, Source: s, Link: ds[0], Match: iv(0, 1000), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	snapshot := n.Label(ds[0]).Clone()

	// Insert then remove an overlapping higher-priority rule.
	if _, err := n.InsertRule(Rule{ID: 2, Source: s, Link: ds[1], Match: iv(100, 900), Priority: 5}); err != nil {
		t.Fatal(err)
	}
	dRem, err := n.RemoveRule(2)
	if err != nil {
		t.Fatal(err)
	}
	if dRem.Empty() {
		t.Fatal("removal of owning rule must produce a delta")
	}
	// Every atom the removal takes off ds[1] returns to ds[0].
	if !n.Label(ds[1]).Empty() {
		t.Fatalf("ds[1] label not empty: %v", n.Label(ds[1]))
	}
	if !n.Label(ds[0]).IsSubset(snapshot) == false && !snapshot.IsSubset(n.Label(ds[0])) {
		t.Fatal("ds[0] label does not cover original")
	}
	// The address-level behaviour is fully restored.
	for addr := uint64(0); addr < 1100; addr += 17 {
		link := n.ForwardLink(s, n.AtomOf(addr))
		want := netgraph.NoLink
		if addr < 1000 {
			want = ds[0]
		}
		if link != want {
			t.Fatalf("addr %d link %d want %d", addr, link, want)
		}
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestPriorityTieBreakByID(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	la := g.AddLink(s, g.AddNode("a"))
	lb := g.AddLink(s, g.AddNode("b"))
	n := NewNetwork(g, Options{})
	n.InsertRule(Rule{ID: 1, Source: s, Link: la, Match: iv(0, 10), Priority: 5})
	n.InsertRule(Rule{ID: 2, Source: s, Link: lb, Match: iv(0, 10), Priority: 5})
	// Equal priority: larger rule id wins deterministically.
	if got := n.ForwardLink(s, n.AtomOf(3)); got != lb {
		t.Fatalf("tie-break: got %d want %d", got, lb)
	}
	n.RemoveRule(2)
	if got := n.ForwardLink(s, n.AtomOf(3)); got != la {
		t.Fatalf("after removal: got %d want %d", got, la)
	}
}

func TestGCMergesAtoms(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	l := g.AddLink(s, g.AddNode("d"))
	n := NewNetwork(g, Options{GC: true})

	rng := rand.New(rand.NewSource(2))
	var ids []RuleID
	for i := 0; i < 200; i++ {
		lo := uint64(rng.Intn(10000))
		r := Rule{ID: RuleID(i), Source: s, Link: l, Match: iv(lo, lo+1+uint64(rng.Intn(10000))), Priority: Priority(rng.Intn(100))}
		if _, err := n.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	if n.NumAtoms() < 100 {
		t.Fatalf("expected many atoms, got %d", n.NumAtoms())
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		if _, err := n.RemoveRule(id); err != nil {
			t.Fatal(err)
		}
		if msg := n.CheckInvariants(); msg != "" {
			t.Fatalf("after removing %d: %s", id, msg)
		}
	}
	if n.NumAtoms() != 1 {
		t.Fatalf("atoms after removing all rules: %d, want 1", n.NumAtoms())
	}
	if n.Merges() == 0 {
		t.Fatal("GC never merged")
	}
	if !n.Label(l).Empty() {
		t.Fatalf("label not empty: %v", n.Label(l))
	}
	// Ids were recycled: MaxAtomID stays bounded by peak, and reuse works.
	if _, err := n.InsertRule(Rule{ID: 999, Source: s, Link: l, Match: iv(5, 10), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestDeltaEmptyAndOpString(t *testing.T) {
	// The delta of two updates merged into one (what ApplyBatch yields):
	// atom 3 moves from link 0 to link 1 and is listed on both sides.
	d1 := &Delta{Rule: 1, Op: OpInsert,
		Added:    []LinkAtom{{Link: 1, Atom: 3}, {Link: 1, Atom: 4}, {Link: 2, Atom: 5}},
		Removed:  []LinkAtom{{Link: 0, Atom: 3}},
		NewAtoms: []intervalmap.SplitPair{{Old: 1, New: 5}}}
	if (&Delta{}).Empty() != true || d1.Empty() {
		t.Fatal("Empty wrong")
	}
	if OpInsert.String() != "insert" || OpRemove.String() != "remove" {
		t.Fatal("Op String")
	}
}

func TestInsertRuleIntoReuse(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	l := g.AddLink(s, g.AddNode("d"))
	n := NewNetwork(g, Options{})
	var d Delta
	for i := 0; i < 10; i++ {
		if err := n.InsertRuleInto(Rule{ID: RuleID(i), Source: s, Link: l,
			Match: iv(uint64(i*10), uint64(i*10+10)), Priority: 1}, &d); err != nil {
			t.Fatal(err)
		}
		if d.Rule != RuleID(i) || d.Op != OpInsert {
			t.Fatalf("delta header %+v", d)
		}
	}
	for i := 0; i < 10; i++ {
		if err := n.RemoveRuleInto(RuleID(i), &d); err != nil {
			t.Fatal(err)
		}
		if d.Op != OpRemove {
			t.Fatal("delta op")
		}
	}
	if n.NumRules() != 0 {
		t.Fatal("rules remain")
	}
}

func TestRulesIterationAndAccessors(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	l := g.AddLink(s, g.AddNode("d"))
	n := NewNetwork(g, Options{})
	n.InsertRule(Rule{ID: 7, Source: s, Link: l, Match: iv(0, 10), Priority: 1})
	if r, ok := n.Rule(7); !ok || r.ID != 7 {
		t.Fatal("Rule accessor")
	}
	if _, ok := n.Rule(8); ok {
		t.Fatal("phantom rule")
	}
	count := 0
	n.Rules(func(r Rule) bool { count++; return true })
	if count != 1 {
		t.Fatal("Rules iteration")
	}
	if n.Graph() != g || n.Space() != ipnet.IPv4 {
		t.Fatal("accessors")
	}
	if r, ok := n.Rule(7); !ok || n.ForwardLink(s, n.AtomOf(5)) != r.Link {
		t.Fatal("ForwardLink of the owned atom")
	}
	if n.ForwardLink(s, n.AtomOf(50)) != netgraph.NoLink {
		t.Fatal("ForwardLink of an unowned atom")
	}
	if n.ForwardLink(s, 9999) != netgraph.NoLink {
		t.Fatal("ForwardLink out-of-range atom")
	}
	if n.Label(999).Len() != 0 {
		t.Fatal("Label of unknown link")
	}
	if n.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes")
	}
	if _, ok := n.AtomInterval(0); !ok {
		t.Fatal("AtomInterval")
	}
}

// TestCheckInvariantsReportsForeignRule corrupts an owner cell so that it
// names a node its rule does not sit at: CheckInvariants must describe the
// violation rather than panic.
func TestCheckInvariantsReportsForeignRule(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{})
	if _, err := n.InsertRule(Rule{ID: 1, Source: a, Link: l, Match: iv(0, 10), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	n.owner[n.AtomOf(5)].words()[0] = 1 << b // move the cell from a to b
	if msg := n.CheckInvariants(); !strings.Contains(msg, "holds foreign rule 1 of node 0") {
		t.Fatalf("CheckInvariants = %q, want the foreign rule reported", msg)
	}
}

// TestCheckInvariantsReportsBadCells corrupts an owner table five ways — a
// slab window of one rule, an inline cell naming a released slot, an
// inline cell naming a rule at another node, a source bitmap marking more
// nodes than there are cells, and a bitmap word count running past the
// cell directory — and CheckInvariants must describe each violation
// rather than panic.
func TestCheckInvariantsReportsBadCells(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(n *Network, oa *ownerAtom)
		want    string
	}{
		{"one-rule slab window", func(n *Network, oa *ownerAtom) {
			oa.slab = append(oa.slab[:0], oa.vals()[0])
			oa.vals()[0] = ^int32(1)
		}, "owner cell of node 0 has slab window [0:1) of 1, want ≥ 2 rules"},
		{"released slot", func(n *Network, oa *ownerAtom) {
			slot, _ := n.store.slotOf(3)
			if _, err := n.RemoveRule(3); err != nil {
				t.Fatal(err)
			}
			oa.vals()[0] = slot
		}, "owner cell of node 0 holds released slot 2"},
		{"rule at another node", func(n *Network, oa *ownerAtom) {
			oa.vals()[0] = oa.vals()[1]
		}, "owner cell of node 0 holds foreign rule 2 of node 1"},
		{"bitmap bit without a cell", func(n *Network, oa *ownerAtom) {
			oa.words()[0] |= 1 << 2
		}, "owner bitmap marks 3 nodes for 2 cells"},
		{"bitmap past the directory", func(n *Network, oa *ownerAtom) {
			oa.cells[0] = int32(len(oa.cells))
		}, "owner bitmap of 4 words overruns its 4-entry cell directory"},
	} {
		g := netgraph.New()
		a, b := g.AddNode("a"), g.AddNode("b")
		ab, ba := g.AddLink(a, b), g.AddLink(b, a)
		n := NewNetwork(g, Options{})
		for _, r := range []Rule{
			{ID: 1, Source: a, Link: ab, Match: iv(0, 10), Priority: 1},
			{ID: 2, Source: b, Link: ba, Match: iv(0, 10), Priority: 1},
			{ID: 3, Source: a, Link: ab, Match: iv(20, 30), Priority: 1},
		} {
			if _, err := n.InsertRule(r); err != nil {
				t.Fatal(err)
			}
		}
		if msg := n.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		tc.corrupt(n, &n.owner[n.AtomOf(5)])
		if msg := n.CheckInvariants(); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: CheckInvariants = %q, want %q", tc.name, msg, tc.want)
		}
	}
}

// TestCheckInvariantsReportsBadHandles corrupts a live record's bound
// handles — out of the tree, naming a released key's slot, and swapped —
// and CheckInvariants must describe each violation rather than panic.
func TestCheckInvariantsReportsBadHandles(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{GC: true})
	for _, r := range []Rule{
		{ID: 1, Source: a, Link: l, Match: iv(0, 10), Priority: 1},
		{ID: 2, Source: a, Link: l, Match: iv(20, 30), Priority: 1},
	} {
		if _, err := n.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	slot2, _ := n.store.slotOf(2)
	released := n.store.ivs[n.store.rec(slot2).iv].lo
	if _, err := n.RemoveRule(2); err != nil { // GC releases 20 and 30
		t.Fatal(err)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	slot, _ := n.store.slotOf(1)
	entry := &n.store.ivs[n.store.rec(slot).iv]
	good := *entry
	for _, bad := range []struct {
		name   string
		lo, hi intervalmap.Bound
	}{
		{"outside the tree", good.lo, 1 << 20},
		{"negative", -2, good.hi},
		{"released slot", good.lo, released},
		{"swapped", good.hi, good.lo},
	} {
		entry.lo, entry.hi = bad.lo, bad.hi
		if msg := n.CheckInvariants(); !strings.Contains(msg, "do not name keys lo < hi") {
			t.Errorf("%s: CheckInvariants = %q, want the bad handles reported", bad.name, msg)
		}
	}
	*entry = good
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestCheckInvariantsReportsBadIntervals corrupts the interval table — an
// entry's refcount, the index slot that finds a live entry, and an empty
// index slot pointed at a freed entry — and CheckInvariants must describe
// each violation.
func TestCheckInvariantsReportsBadIntervals(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{GC: true})
	for _, r := range []Rule{
		{ID: 1, Source: a, Link: l, Match: iv(0, 10), Priority: 1},
		{ID: 2, Source: a, Link: l, Match: iv(0, 10), Priority: 2},
		{ID: 3, Source: a, Link: l, Match: iv(20, 30), Priority: 1},
	} {
		if _, err := n.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.RemoveRule(3); err != nil { // frees 20–30's entry
		t.Fatal(err)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	s := &n.store
	slot, _ := s.slotOf(1)
	e := s.rec(slot).iv
	if s.ivs[e].refs != 2 || len(s.ivFree) != 1 {
		t.Fatalf("entry %d has refs %d, free list %v: want 2 rules sharing it and one freed entry", e, s.ivs[e].refs, s.ivFree)
	}
	pos, _ := n.findIV(iv(0, 10))
	empty := slices.Index(s.ivIdx.table, 0)
	for _, bad := range []struct {
		name, want string
		corrupt    func()
	}{
		{"refcount", "has refs 3, but 2 records name it", func() { s.ivs[e].refs++ }},
		{"index slot", "interval index does not find entry", func() { s.ivIdx.table[pos] = 0 }},
		{"freed entry indexed", "interval index holds 2 entries", func() { s.ivIdx.table[empty] = s.ivFree[0] + 1 }},
	} {
		entry, table := s.ivs[e], slices.Clone(s.ivIdx.table)
		bad.corrupt()
		if msg := n.CheckInvariants(); !strings.Contains(msg, bad.want) {
			t.Errorf("%s: CheckInvariants = %q, want %q", bad.name, msg, bad.want)
		}
		s.ivs[e], s.ivIdx.table = entry, table
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
