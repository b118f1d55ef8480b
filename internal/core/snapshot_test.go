package core

import (
	"math/rand"
	"testing"

	"deltanet/internal/netgraph"
)

func buildRandomNetwork(t *testing.T, seed int64, ops int) (*Network, *netgraph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _, links := buildRandomTopology(rng, 5)
	n := NewNetwork(g, Options{})
	for i := 0; i < ops; i++ {
		l := links[rng.Intn(len(links))]
		lo := uint64(rng.Intn(10000))
		r := Rule{ID: RuleID(i + 1), Source: g.Link(l).Src, Link: l,
			Match: iv(lo, lo+1+uint64(rng.Intn(10000))), Priority: Priority(rng.Intn(40))}
		if _, err := n.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return n, g
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	n, g := buildRandomNetwork(t, 31, 120)
	snap := n.Snapshot()
	if len(snap) != n.NumRules() {
		t.Fatalf("snapshot %d rules, engine %d", len(snap), n.NumRules())
	}
	// Ordered by id.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Fatal("snapshot not sorted")
		}
	}
	restored := NewNetwork(g, Options{})
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !BehaviourEqual(n, restored) {
		t.Fatal("restored behaviour differs")
	}
	if n.BehaviourDigest() != restored.BehaviourDigest() {
		t.Fatal("digests differ")
	}
	// Restore into non-empty engine with clashing ids fails.
	if err := restored.Restore(snap); err == nil {
		t.Fatal("double restore accepted")
	}
}

func TestBehaviourDigestOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _, links := buildRandomTopology(rng, 4)
	rules := make([]Rule, 50)
	for i := range rules {
		l := links[rng.Intn(len(links))]
		lo := uint64(rng.Intn(4000))
		rules[i] = Rule{ID: RuleID(i + 1), Source: g.Link(l).Src, Link: l,
			Match: iv(lo, lo+1+uint64(rng.Intn(4000))), Priority: Priority(rng.Intn(30))}
	}
	digests := map[uint64]bool{}
	for trial := 0; trial < 4; trial++ {
		n := NewNetwork(g, Options{})
		for _, j := range rng.Perm(len(rules)) {
			if _, err := n.InsertRule(rules[j]); err != nil {
				t.Fatal(err)
			}
		}
		digests[n.BehaviourDigest()] = true
	}
	if len(digests) != 1 {
		t.Fatalf("insertion order changed digest: %d distinct", len(digests))
	}
}

func TestBehaviourDigestSensitive(t *testing.T) {
	n, g := buildRandomNetwork(t, 8, 40)
	before := n.BehaviourDigest()
	// A new owning rule must change the digest.
	l := g.Out(0)[0]
	if _, err := n.InsertRule(Rule{ID: 9999, Source: g.Link(l).Src, Link: l,
		Match: iv(0, 1<<30), Priority: 9999}); err != nil {
		t.Fatal(err)
	}
	if n.BehaviourDigest() == before {
		t.Fatal("digest blind to behaviour change")
	}
	// Removing it restores the digest.
	if _, err := n.RemoveRule(9999); err != nil {
		t.Fatal(err)
	}
	if n.BehaviourDigest() != before {
		t.Fatal("digest not restored after inverse update")
	}
}

func TestLinkFlowsMergesAdjacent(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	l := g.AddLink(s, g.AddNode("d"))
	n := NewNetwork(g, Options{})
	// Two adjacent rules on the same link: flows merge into one range.
	n.InsertRule(Rule{ID: 1, Source: s, Link: l, Match: iv(0, 100), Priority: 1})
	n.InsertRule(Rule{ID: 2, Source: s, Link: l, Match: iv(100, 200), Priority: 1})
	flows := n.LinkFlows(l)
	if len(flows) != 1 || flows[0] != iv(0, 200) {
		t.Fatalf("flows=%v", flows)
	}
	// A gap splits them.
	n.InsertRule(Rule{ID: 3, Source: s, Link: netgraph.NoLink, Match: iv(50, 60), Priority: 9})
	flows = n.LinkFlows(l)
	if len(flows) != 2 {
		t.Fatalf("flows after drop=%v", flows)
	}
	// Empty link.
	if got := n.LinkFlows(999); len(got) != 0 {
		t.Fatalf("unknown link flows=%v", got)
	}
}

func TestBehaviourEqualDetectsDifference(t *testing.T) {
	a, g := buildRandomNetwork(t, 3, 30)
	b := NewNetwork(g, Options{})
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !BehaviourEqual(a, b) {
		t.Fatal("identical networks differ")
	}
	l := g.Out(1)[0]
	b.InsertRule(Rule{ID: 5555, Source: g.Link(l).Src, Link: l,
		Match: iv(0, 1<<31), Priority: 12345})
	if BehaviourEqual(a, b) {
		t.Fatal("different networks equal")
	}
}

// TestBehaviourDigestPinned fixes the digest of a seeded plane — 3000
// prefix rules over a 12-node mesh, then with a seeded half removed, and
// the surviving half batch-loaded into a GC engine. Replicas, restores and
// the benchmark compare digests computed by different builds, so the
// digest's bytes must not move when the engine's layout does.
func TestBehaviourDigestPinned(t *testing.T) {
	const wantFull, wantHalf = 0xee689898005c8f2c, 0xa4d328e6a4516ef9
	rng := rand.New(rand.NewSource(20170327))
	g, _, links := buildRandomTopology(rng, 12)
	rules := make([]Rule, 3000)
	for i := range rules {
		l := links[rng.Intn(len(links))]
		bits := 8 + rng.Intn(17) // /8 .. /24
		lo := uint64(rng.Uint32()) &^ (1<<(32-bits) - 1)
		rules[i] = Rule{ID: RuleID(i), Source: g.Link(l).Src, Link: l,
			Match: iv(lo, lo+1<<(32-bits)), Priority: Priority(rng.Intn(40))}
	}
	n := NewNetwork(g, Options{})
	for _, r := range rules {
		if _, err := n.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.BehaviourDigest(); got != wantFull {
		t.Errorf("full plane digest %#x, want %#x", got, uint64(wantFull))
	}
	removed := map[RuleID]bool{}
	for _, i := range rng.Perm(len(rules))[:len(rules)/2] {
		if _, err := n.RemoveRule(rules[i].ID); err != nil {
			t.Fatal(err)
		}
		removed[rules[i].ID] = true
	}
	if got := n.BehaviourDigest(); got != wantHalf {
		t.Errorf("half plane digest %#x, want %#x", got, uint64(wantHalf))
	}
	var ops []BatchOp
	for _, r := range rules {
		if !removed[r.ID] {
			ops = append(ops, InsertOp(r))
		}
	}
	gc := NewNetwork(g, Options{GC: true})
	var d Delta
	if err := gc.ApplyBatch(ops, &d, 2); err != nil {
		t.Fatal(err)
	}
	if got := gc.BehaviourDigest(); got != wantHalf {
		t.Errorf("batch-loaded half plane digest %#x, want %#x", got, uint64(wantHalf))
	}
}
