package core

import (
	"testing"

	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// TestSteadyChurnZeroAllocs pins the flat data plane's core promise:
// once warmed, an insert/remove churn cycle allocates nothing. The rule
// arena recycles slots, the owner cell directories and slabs retain
// capacity across atom death, the interval map's arena re-threads freed
// tree nodes, and the caller-provided Delta reuses its backing arrays —
// so the only steady-state cost is index arithmetic over memory that
// already exists.
func TestSteadyChurnZeroAllocs(t *testing.T) {
	g := netgraph.New()
	s1, s2, s3 := g.AddNode("s1"), g.AddNode("s2"), g.AddNode("s3")
	l12 := g.AddLink(s1, s2)
	l23 := g.AddLink(s2, s3)
	n := NewNetwork(g, Options{GC: true})

	// Standing rules so churn happens against populated owner tables.
	if _, err := n.InsertRule(Rule{ID: 1, Source: s1, Link: l12,
		Match: ipnet.Interval{Lo: 0, Hi: 1 << 20}, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InsertRule(Rule{ID: 2, Source: s2, Link: l23,
		Match: ipnet.Interval{Lo: 0, Hi: 1 << 20}, Priority: 1}); err != nil {
		t.Fatal(err)
	}

	// The churning rule splits atoms on insert and (with GC) merges them
	// back on remove, exercising boundary alloc/release, owner split
	// copies, and label updates every cycle.
	churn := Rule{ID: 99, Source: s1, Link: l12,
		Match: ipnet.Interval{Lo: 1000, Hi: 5000}, Priority: 7}
	var d Delta
	cycle := func() {
		if err := n.InsertRuleInto(churn, &d); err != nil {
			t.Fatal(err)
		}
		if err := n.RemoveRuleInto(churn.ID, &d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm every free list and retained buffer
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state churn cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBatchChurnZeroAllocs is the same promise for ApplyBatch on one
// worker: once warmed, a churn cycle of two batches — inserts from several
// sources over shared atoms (the one-merge rewrite), then a batch that
// removes and re-inserts one id and removes the rest — allocates nothing.
// The batch scratch (items, id map, incidences, runs, results and the
// rewrite buffers) is retained across calls.
func TestBatchChurnZeroAllocs(t *testing.T) {
	g := netgraph.New()
	var nodes []netgraph.NodeID
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		nodes = append(nodes, g.AddNode(name))
	}
	var links []netgraph.LinkID
	for i := range nodes {
		links = append(links, g.AddLink(nodes[i], nodes[(i+1)%len(nodes)]))
	}
	n := NewNetwork(g, Options{})
	var ins, churn []BatchOp
	for i := range 8 {
		src := i % len(nodes)
		lo := uint64(i%3) * 1000
		ins = append(ins, InsertOp(Rule{ID: RuleID(10 + i), Source: nodes[src], Link: links[src],
			Match: ipnet.Interval{Lo: lo, Hi: lo + 4000}, Priority: Priority(i % 2)}))
		if i > 0 {
			churn = append(churn, RemoveOp(RuleID(10+i)))
		}
	}
	churn = append(churn, RemoveOp(10), ins[0], RemoveOp(10))
	var d Delta
	cycle := func() {
		if err := n.ApplyBatch(ins, &d, 1); err != nil {
			t.Fatal(err)
		}
		if err := n.ApplyBatch(churn, &d, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state ApplyBatch churn cycle allocates %.1f objects/op, want 0", allocs)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
