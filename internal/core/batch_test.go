package core

// Tests for the batch update pipeline: ApplyBatch of N operations must be
// indistinguishable — same atom partition, same labels, same forwarding —
// from N sequential InsertRule/RemoveRule calls, with all-or-nothing
// failure semantics. The randomized workloads reuse the brute-force
// single-packet oracle from brute_test.go.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// compareNetworks asserts that two non-GC engines over the same topology
// are in identical states: atom partition (including ids), per-link
// labels, and per-(node, atom) forwarding.
func compareNetworks(t *testing.T, got, want *Network) {
	t.Helper()
	if got.NumAtoms() != want.NumAtoms() {
		t.Fatalf("atoms: got %d, want %d", got.NumAtoms(), want.NumAtoms())
	}
	type atomIv struct {
		id intervalmap.AtomID
		iv ipnet.Interval
	}
	var gotAtoms, wantAtoms []atomIv
	got.ForEachAtom(func(id intervalmap.AtomID, iv ipnet.Interval) bool {
		gotAtoms = append(gotAtoms, atomIv{id, iv})
		return true
	})
	want.ForEachAtom(func(id intervalmap.AtomID, iv ipnet.Interval) bool {
		wantAtoms = append(wantAtoms, atomIv{id, iv})
		return true
	})
	for i := range wantAtoms {
		if gotAtoms[i] != wantAtoms[i] {
			t.Fatalf("atom %d: got %v, want %v", i, gotAtoms[i], wantAtoms[i])
		}
	}
	g := want.Graph()
	for l := 0; l < g.NumLinks(); l++ {
		if !got.Label(netgraph.LinkID(l)).Equal(want.Label(netgraph.LinkID(l))) {
			t.Fatalf("label of link %d differs: got %v, want %v",
				l, got.Label(netgraph.LinkID(l)).Slice(), want.Label(netgraph.LinkID(l)).Slice())
		}
	}
	for _, a := range wantAtoms {
		for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if gl, wl := got.ForwardLink(v, a.id), want.ForwardLink(v, a.id); gl != wl {
				t.Fatalf("forward(node %d, atom %d): got %d, want %d", v, a.id, gl, wl)
			}
		}
	}
}

// randomBatchOps generates a mixed insert/remove workload. live is
// mutated to track rules alive after all ops execute.
func randomBatchOps(rng *rand.Rand, g *netgraph.Graph, nodes []netgraph.NodeID,
	live *[]RuleID, nextID *RuleID, count int) []BatchOp {
	const addrSpace = 1 << 16
	ops := make([]BatchOp, 0, count)
	for len(ops) < count {
		if len(*live) > 0 && rng.Intn(100) < 35 {
			k := rng.Intn(len(*live))
			id := (*live)[k]
			(*live)[k] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
			ops = append(ops, RemoveOp(id))
			continue
		}
		src := nodes[rng.Intn(len(nodes))]
		var link netgraph.LinkID = netgraph.NoLink
		if rng.Intn(10) > 0 {
			outs := g.Out(src)
			link = outs[rng.Intn(len(outs))]
			if g.IsDropLink(link) {
				link = netgraph.NoLink
			}
		}
		lo := uint64(rng.Intn(addrSpace))
		ops = append(ops, InsertOp(Rule{
			ID: *nextID, Source: src, Link: link,
			Match:    iv(lo, lo+1+uint64(rng.Intn(addrSpace/4))),
			Priority: Priority(rng.Intn(50)),
		}))
		*live = append(*live, *nextID)
		*nextID++
	}
	return ops
}

// opGen produces one batch of count ops over g's nodes, tracking the ids
// left live in live and the next fresh id in nextID.
type opGen func(rng *rand.Rand, g *netgraph.Graph, nodes []netgraph.NodeID, live *[]RuleID, nextID *RuleID, count int) []BatchOp

// wideFanoutOps generates ops over 64-address cells of [0, 1024), so a
// few atoms each carry most sources and repeated ops on one (atom,
// source). Every sixteenth op removes a live id and re-inserts it (R id,
// I id), another sixteenth inserts a fresh id that the batch's tail
// removes (I id, R id). An id's source and priority follow from the id,
// so a re-insertion lands in its old cell under its old key, and
// priorities are few, so ties between ids fall to the id.
func wideFanoutOps(rng *rand.Rand, g *netgraph.Graph, nodes []netgraph.NodeID, live *[]RuleID, nextID *RuleID, count int) []BatchOp {
	var ops []BatchOp
	var transient []RuleID
	insert := func(id RuleID) {
		src := nodes[int(id)%len(nodes)]
		outs := g.Out(src)
		lo := uint64(rng.Intn(15)) * 64
		ops = append(ops, InsertOp(Rule{ID: id, Source: src, Link: outs[rng.Intn(len(outs))],
			Match: iv(lo, lo+64*uint64(1+rng.Intn(3))), Priority: Priority(int(id) / len(nodes) % 4)}))
	}
	for len(ops) < count {
		switch k := rng.Intn(16); {
		case k == 0 && len(*live) > 0:
			id := (*live)[rng.Intn(len(*live))]
			ops = append(ops, RemoveOp(id))
			insert(id)
		case k == 1:
			insert(*nextID)
			transient = append(transient, *nextID)
			*nextID++
		case k < 7 && len(*live) > 0:
			i := rng.Intn(len(*live))
			ops = append(ops, RemoveOp((*live)[i]))
			(*live)[i] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
		default:
			insert(*nextID)
			*live = append(*live, *nextID)
			*nextID++
		}
	}
	for _, id := range transient {
		ops = append(ops, RemoveOp(id))
	}
	return ops
}

// batchShape is what the batches of one equivalence run put on single
// atoms: the most sources on one atom, the most ops on one (atom, source),
// and whether some batch removed and re-inserted an id, or inserted one
// and removed it again.
type batchShape struct {
	sources, cellOps                 int
	removeReinsert, insertThenRemove bool
}

// runBatchEquivalence drives the same workload through ApplyBatch (batch
// size k, worker count w) and through sequential Insert/Remove on a twin
// engine, comparing states and the brute oracle after every batch.
func runBatchEquivalence(t *testing.T, seed int64, nodeCount, batchSize, workers int, gen opGen) batchShape {
	rng := rand.New(rand.NewSource(seed))
	g, nodes, _ := buildRandomTopology(rng, nodeCount)
	batched := NewNetwork(g, Options{})
	seq := NewNetwork(g, Options{})
	oracle := newBrute()

	var live []RuleID
	nextID := RuleID(1)
	var d, scratch Delta
	var shape batchShape
	for round := 0; round < 6; round++ {
		ops := gen(rng, g, nodes, &live, &nextID, batchSize)
		if err := batched.ApplyBatch(ops, &d, workers); err != nil {
			t.Fatal(err)
		}
		sources := map[intervalmap.AtomID]map[netgraph.NodeID]bool{}
		cellOps := map[[2]int32]int{} // (atom, source)
		inserted := map[RuleID]bool{} // ids this batch touched: true if last inserted
		for _, op := range ops {
			r := op.Rule
			if op.Insert {
				if was, ok := inserted[r.ID]; ok && !was {
					shape.removeReinsert = true
				}
				if err := seq.InsertRuleInto(op.Rule, &scratch); err != nil {
					t.Fatal(err)
				}
				if r.Link == netgraph.NoLink {
					r.Link = g.DropLink(r.Source)
				}
				oracle.insert(r)
			} else {
				if inserted[r.ID] {
					shape.insertThenRemove = true
				}
				r, _ = seq.Rule(r.ID)
				if err := seq.RemoveRuleInto(op.Rule.ID, &scratch); err != nil {
					t.Fatal(err)
				}
				oracle.remove(op.Rule.ID)
			}
			inserted[r.ID] = op.Insert
			for _, a := range batched.AtomsOverlapping(r.Match) {
				if sources[a] == nil {
					sources[a] = map[netgraph.NodeID]bool{}
				}
				sources[a][r.Source] = true
				shape.sources = max(shape.sources, len(sources[a]))
				cell := [2]int32{int32(a), int32(r.Source)}
				cellOps[cell]++
				shape.cellOps = max(shape.cellOps, cellOps[cell])
			}
		}
		compareNetworks(t, batched, seq)
		checkAgainstBrute(t, batched, oracle, nodes)
		if msg := batched.CheckInvariants(); msg != "" {
			t.Fatalf("round %d: %s", round, msg)
		}
	}
	return shape
}

func TestBatchEquivalentToSequential(t *testing.T) {
	for _, tc := range []struct {
		name           string
		seed           int64
		batch, workers int
	}{
		{"batch1-serial", 11, 1, 1},
		{"batch16-serial", 12, 16, 1},
		{"batch16-parallel", 13, 16, 0},
		{"batch64-parallel", 14, 64, 0},
		{"batch256-parallel", 15, 256, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runBatchEquivalence(t, tc.seed, 5, tc.batch, tc.workers, randomBatchOps)
		})
	}
	// Wide fanout: 64 sources over a few atoms, so single atoms take the
	// one-merge rewrite with dozens of sources and repeated ops per cell.
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("fanout64-batch1024-workers%d", workers), func(t *testing.T) {
			shape := runBatchEquivalence(t, 16, 64, 1024, workers, wideFanoutOps)
			if shape.sources < 32 || shape.cellOps < 2 || !shape.removeReinsert || !shape.insertThenRemove {
				t.Fatalf("workload too narrow to exercise the atom merge: %+v", shape)
			}
		})
	}
}

// TestBatchGCBehaviour: with GC enabled atom ids may be assigned
// differently than sequential execution, but forwarding behaviour and
// invariants must still match the brute oracle.
func TestBatchGCBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, nodes, _ := buildRandomTopology(rng, 5)
	n := NewNetwork(g, Options{GC: true})
	oracle := newBrute()

	var live []RuleID
	nextID := RuleID(1)
	var d Delta
	for round := 0; round < 8; round++ {
		ops := randomBatchOps(rng, g, nodes, &live, &nextID, 48)
		if err := n.ApplyBatch(ops, &d, 0); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Insert {
				rr := op.Rule
				if rr.Link == netgraph.NoLink {
					rr.Link = g.DropLink(rr.Source)
				}
				oracle.insert(rr)
			} else {
				oracle.remove(op.Rule.ID)
			}
		}
		checkAgainstBrute(t, n, oracle, nodes)
		if msg := n.CheckInvariants(); msg != "" {
			t.Fatalf("round %d: %s", round, msg)
		}
	}
	if n.Merges() == 0 {
		t.Fatal("workload performed no GC merges; test is vacuous")
	}
}

// TestBatchGCRemoveThenReinsert (regression): with GC enabled, a batch
// that removes a rule and then inserts another re-using the same interval
// boundaries must not merge away the atoms under the new rule — boundary
// collection is deferred past the whole batch's refcount accounting.
func TestBatchGCRemoveThenReinsert(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{GC: true})
	if _, err := n.InsertRule(Rule{ID: 1, Source: a, Link: l, Match: iv(100, 200), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	var d Delta
	err := n.ApplyBatch([]BatchOp{
		RemoveOp(1),
		InsertOp(Rule{ID: 2, Source: a, Link: l, Match: iv(100, 200), Priority: 1}),
	}, &d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.ForwardLink(a, n.AtomOf(150)); got != l {
		t.Fatalf("ForwardLink = %d, want %d: rule 2's atoms were merged away", got, l)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}

	// Remove → insert → remove of the same boundary within one batch: the
	// bound dies twice as a candidate but must be collected exactly once.
	err = n.ApplyBatch([]BatchOp{
		RemoveOp(2),
		InsertOp(Rule{ID: 3, Source: a, Link: l, Match: iv(100, 200), Priority: 1}),
		RemoveOp(3),
	}, &d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumRules() != 0 {
		t.Fatalf("rules = %d, want 0", n.NumRules())
	}
	if n.ForwardLink(a, n.AtomOf(150)) != netgraph.NoLink {
		t.Fatal("removed rule still forwards")
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestBatchIntraBatchInsertRemove: a rule inserted and removed within one
// batch leaves no trace in ownership and no net delta entries, but its
// splits remain (no GC).
func TestBatchIntraBatchInsertRemove(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{})
	var d Delta
	ops := []BatchOp{
		InsertOp(Rule{ID: 1, Source: a, Link: l, Match: iv(100, 200), Priority: 5}),
		RemoveOp(1),
	}
	if err := n.ApplyBatch(ops, &d, 0); err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("net delta not empty: +%v -%v", d.Added, d.Removed)
	}
	if len(d.NewAtoms) != 2 {
		t.Fatalf("NewAtoms = %d, want 2", len(d.NewAtoms))
	}
	if n.NumRules() != 0 {
		t.Fatalf("rules = %d, want 0", n.NumRules())
	}
	if !n.Label(l).Empty() {
		t.Fatalf("label not empty: %v", n.Label(l).Slice())
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestBatchCompaction: an insertion shadowed within the same batch by a
// higher-priority rule on another link contributes nothing to the net
// delta for the shared atom.
func TestBatchCompaction(t *testing.T) {
	g := netgraph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	lb := g.AddLink(a, b)
	lc := g.AddLink(a, c)
	n := NewNetwork(g, Options{})
	var d Delta
	ops := []BatchOp{
		InsertOp(Rule{ID: 1, Source: a, Link: lb, Match: iv(0, 100), Priority: 1}),
		InsertOp(Rule{ID: 2, Source: a, Link: lc, Match: iv(0, 100), Priority: 9}),
	}
	if err := n.ApplyBatch(ops, &d, 0); err != nil {
		t.Fatal(err)
	}
	for _, la := range d.Added {
		if la.Link == lb {
			t.Fatalf("shadowed rule leaked into net delta: %+v", d.Added)
		}
	}
	if n.Label(lb).Len() != 0 || n.Label(lc).Len() == 0 {
		t.Fatalf("labels wrong: lb=%v lc=%v", n.Label(lb).Slice(), n.Label(lc).Slice())
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestBatchAtomicFailure: any invalid operation rejects the whole batch
// and leaves the engine untouched.
func TestBatchAtomicFailure(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{})
	if _, err := n.InsertRule(Rule{ID: 1, Source: a, Link: l, Match: iv(0, 50), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	atomsBefore := n.NumAtoms()

	var d Delta
	cases := map[string][]BatchOp{
		"duplicate of live rule": {
			InsertOp(Rule{ID: 2, Source: a, Link: l, Match: iv(60, 70), Priority: 1}),
			InsertOp(Rule{ID: 1, Source: a, Link: l, Match: iv(80, 90), Priority: 1}),
		},
		"duplicate within batch": {
			InsertOp(Rule{ID: 3, Source: a, Link: l, Match: iv(60, 70), Priority: 1}),
			InsertOp(Rule{ID: 3, Source: a, Link: l, Match: iv(80, 90), Priority: 1}),
		},
		"unknown removal": {
			InsertOp(Rule{ID: 4, Source: a, Link: l, Match: iv(60, 70), Priority: 1}),
			RemoveOp(99),
		},
		"double removal within batch": {
			RemoveOp(1),
			RemoveOp(1),
		},
		"empty match": {
			InsertOp(Rule{ID: 5, Source: a, Link: l, Match: iv(60, 60), Priority: 1}),
		},
		"bad link": {
			InsertOp(Rule{ID: 6, Source: b, Link: l, Match: iv(60, 70), Priority: 1}),
		},
		// A drop rule needs a sink node and a drop link the graph does not
		// have yet; a refused batch must not leave them behind.
		"drop rule before a duplicate": {
			InsertOp(Rule{ID: 7, Source: a, Link: netgraph.NoLink, Match: iv(60, 70), Priority: 1}),
			InsertOp(Rule{ID: 1, Source: a, Link: l, Match: iv(80, 90), Priority: 1}),
		},
	}
	for name, ops := range cases {
		if err := n.ApplyBatch(ops, &d, 0); err == nil {
			t.Fatalf("%s: no error", name)
		}
		if n.NumRules() != 1 || n.NumAtoms() != atomsBefore {
			t.Fatalf("%s: engine mutated: rules=%d atoms=%d", name, n.NumRules(), n.NumAtoms())
		}
		if g.NumNodes() != 2 || g.NumLinks() != 1 {
			t.Fatalf("%s: graph mutated: nodes=%d links=%d", name, g.NumNodes(), g.NumLinks())
		}
		if msg := n.CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}

	// Error classification survives the batch wrapping.
	err := n.ApplyBatch([]BatchOp{RemoveOp(42)}, &d, 0)
	if !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("want ErrUnknownRule, got %v", err)
	}
}

// TestBatchEmpty: an empty batch resets the delta and changes nothing.
func TestBatchEmpty(t *testing.T) {
	g := netgraph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l := g.AddLink(a, b)
	n := NewNetwork(g, Options{})
	var d Delta
	if _, err := n.InsertRule(Rule{ID: 1, Source: a, Link: l, Match: iv(0, 50), Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyBatch(nil, &d, 0); err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || len(d.NewAtoms) != 0 || d.Op != OpBatch {
		t.Fatalf("empty batch produced %+v", d)
	}
}

func BenchmarkApplyBatchDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, _, links := buildRandomTopology(rng, 8)
	n := NewNetwork(g, Options{})
	var d Delta
	const size = 256
	ops := make([]BatchOp, 0, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = ops[:0]
		for j := 0; j < size; j++ {
			l := links[rng.Intn(len(links))]
			lo := uint64(rng.Intn(1 << 24))
			ops = append(ops, InsertOp(Rule{
				ID: RuleID(i*size+j) + 1, Source: g.Link(l).Src, Link: l,
				Match: iv(lo, lo+1+uint64(rng.Intn(1<<20))), Priority: Priority(rng.Intn(1000)),
			}))
		}
		if err := n.ApplyBatch(ops, &d, 0); err != nil {
			b.Fatal(err)
		}
	}
}
