package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// line4 builds a -> b -> c -> d and returns the graph, nodes, and links.
func line4() (*netgraph.Graph, []netgraph.NodeID, []netgraph.LinkID) {
	g := netgraph.New()
	var nodes []netgraph.NodeID
	for _, name := range []string{"a", "b", "c", "d"} {
		nodes = append(nodes, g.AddNode(name))
	}
	var links []netgraph.LinkID
	for i := 0; i+1 < len(nodes); i++ {
		links = append(links, g.AddLink(nodes[i], nodes[i+1]))
	}
	return g, nodes, links
}

// apply feeds one delta to the monitor the way a caller that ran no
// loop check of its own does.
func apply(m *Monitor, d *core.Delta) []Event { return m.ApplyWithLoops(d, nil, false) }

func mustInsert(t *testing.T, n *core.Network, m *Monitor, r core.Rule) []Event {
	t.Helper()
	var d core.Delta
	if err := n.InsertRuleInto(r, &d); err != nil {
		t.Fatal(err)
	}
	return apply(m, &d)
}

func mustRemove(t *testing.T, n *core.Network, m *Monitor, id core.RuleID) []Event {
	t.Helper()
	var d core.Delta
	if err := n.RemoveRuleInto(id, &d); err != nil {
		t.Fatal(err)
	}
	return apply(m, &d)
}

// TestTransitions walks one invariant through violation and clearing and
// checks the events and cached status at each step.
func TestTransitions(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)

	id, st := m.Register(Reachable{From: nodes[0], To: nodes[2]})
	if st != Violated {
		t.Fatalf("empty data plane: status %v, want violated", st)
	}

	// a->b alone does not reach c: no transition.
	ev := mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	if len(ev) != 0 {
		t.Fatalf("partial path events: %v", ev)
	}

	// b->c completes the path: Cleared.
	ev = mustInsert(t, n, m, core.Rule{ID: 2, Source: nodes[1], Link: links[1],
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	if len(ev) != 1 || ev[0].Kind != Cleared || ev[0].ID != id {
		t.Fatalf("clear events: %v", ev)
	}
	if st, _, _ := m.Status(id); st != Holds {
		t.Fatalf("status after clear: %v", st)
	}

	// Removing the first hop breaks it again: Violation.
	ev = mustRemove(t, n, m, 1)
	if len(ev) != 1 || ev[0].Kind != Violation || ev[0].ID != id {
		t.Fatalf("violation events: %v", ev)
	}
	if ev[0].Seq != 2 {
		t.Fatalf("event seq: %d, want 2", ev[0].Seq)
	}
}

// TestDependencySkipping verifies the incremental core: churn in one
// component must not re-evaluate invariants whose dependency sets live in
// another.
func TestDependencySkipping(t *testing.T) {
	g := netgraph.New()
	// Two disconnected 2-node components.
	a1, a2 := g.AddNode("a1"), g.AddNode("a2")
	b1, b2 := g.AddNode("b1"), g.AddNode("b2")
	la := g.AddLink(a1, a2)
	lb := g.AddLink(b1, b2)
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)

	var d core.Delta
	if err := n.InsertRuleInto(core.Rule{ID: 1, Source: a1, Link: la,
		Match: ipnet.Interval{Lo: 0, Hi: 50}, Priority: 1}, &d); err != nil {
		t.Fatal(err)
	}
	if err := n.InsertRuleInto(core.Rule{ID: 2, Source: b1, Link: lb,
		Match: ipnet.Interval{Lo: 0, Hi: 50}, Priority: 1}, &d); err != nil {
		t.Fatal(err)
	}

	m.Register(Reachable{From: a1, To: a2})
	m.Register(Reachable{From: b1, To: b2})

	// Churn only component A.
	for i := 0; i < 10; i++ {
		mustInsert(t, n, m, core.Rule{ID: core.RuleID(100 + i), Source: a1, Link: la,
			Match: ipnet.Interval{Lo: uint64(100 + i), Hi: uint64(200 + i)}, Priority: 5})
	}
	// Component A's invariant depends only on la, B's only on lb: every
	// one of the 10 updates must evaluate A and skip B.
	st := m.Stats()
	if st.Evaluations != 10 || st.Skips != 10 {
		t.Fatalf("stats %+v: want 10 evaluations and 10 skips", st)
	}
	if got, _, _ := m.Status(1); got != Holds {
		t.Fatalf("component-B invariant status: %v", got)
	}
}

// TestUnregister: an unregistered invariant stops producing events and
// queries fail.
func TestUnregister(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	id, _ := m.Register(Reachable{From: nodes[0], To: nodes[1]})
	if !m.Unregister(id) {
		t.Fatal("unregister known id failed")
	}
	if m.Unregister(id) {
		t.Fatal("double unregister succeeded")
	}
	if _, _, ok := m.Status(id); ok {
		t.Fatal("status of unregistered id")
	}
	if ev := mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1}); len(ev) != 0 {
		t.Fatalf("events after unregister: %v", ev)
	}
}

// TestSubscription: events reach subscribers; a full buffer drops rather
// than blocks; cancel closes the channel.
func TestSubscription(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	m.Register(Reachable{From: nodes[0], To: nodes[1]})

	sub := m.Subscribe(1)
	done := make(chan []Event)
	go func() {
		var got []Event
		for ev := range sub.C {
			got = append(got, ev)
		}
		done <- got
	}()

	mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1}) // Cleared
	mustRemove(t, n, m, 1) // Violation
	sub.Cancel()
	sub.Cancel() // idempotent

	got := <-done
	if len(got)+int(sub.Dropped()) != 2 {
		t.Fatalf("delivered %d + dropped %d, want 2 total", len(got), sub.Dropped())
	}
	if len(got) == 0 {
		t.Fatal("everything dropped from an actively drained subscription")
	}
}

// TestSubscriberDrop: an undrained buffer of size 1 must drop the second
// event, not deadlock the update path.
func TestSubscriberDrop(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	m.Register(Reachable{From: nodes[0], To: nodes[1]})
	sub := m.Subscribe(1)
	mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1})
	mustRemove(t, n, m, 1)
	if sub.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", sub.Dropped())
	}
	sub.Cancel()
}

// churnTopo builds a topology with cycles (so loops can form), dead ends
// (so black holes can form), and enough nodes for interesting queries:
// a ring 0..5 with chords and two stub nodes hanging off it.
func churnTopo() (*netgraph.Graph, []netgraph.NodeID, []netgraph.LinkID) {
	g := netgraph.New()
	var nodes []netgraph.NodeID
	for i := 0; i < 8; i++ {
		nodes = append(nodes, g.AddNode(fmt.Sprintf("n%d", i)))
	}
	var links []netgraph.LinkID
	addLink := func(a, b int) {
		links = append(links, g.AddLink(nodes[a], nodes[b]))
	}
	for i := 0; i < 6; i++ { // ring
		addLink(i, (i+1)%6)
	}
	addLink(0, 3) // chords
	addLink(4, 1)
	addLink(2, 6) // stubs
	addLink(5, 7)
	return g, nodes, links
}

// TestEquivalenceUnderChurn is the monitor's ground-truth test: under a
// randomized insert/remove/batch workload, after EVERY update, every
// cached verdict must equal a from-scratch evaluation of the same query.
func TestEquivalenceUnderChurn(t *testing.T) {
	for _, gc := range []bool{false, true} {
		gc := gc
		t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) {
			testEquivalenceUnderChurn(t, gc)
		})
	}
}

func testEquivalenceUnderChurn(t *testing.T, gc bool) {
	rng := rand.New(rand.NewSource(42))
	g, nodes, links := churnTopo()
	n := core.NewNetwork(g, core.Options{GC: gc})
	m := New(n, 0)

	sinks := map[netgraph.NodeID]bool{nodes[6]: true, nodes[7]: true}

	// One oracle per registered invariant: violated, from scratch?
	type regInv struct {
		id     ID
		spec   Spec
		oracle func() bool
	}
	var invs []regInv
	reg := func(s Spec, oracle func() bool) {
		id, _ := m.Register(s)
		invs = append(invs, regInv{id: id, spec: s, oracle: oracle})
	}
	for i := 0; i < 6; i++ {
		from, to := nodes[i], nodes[(i+3)%8]
		reg(Reachable{From: from, To: to}, func() bool {
			return check.Reachable(n, from, to).Empty()
		})
	}
	for i := 0; i < 4; i++ {
		from, to, via := nodes[i], nodes[(i+2)%6], nodes[(i+1)%6]
		reg(Waypoint{From: from, To: to, Via: via}, func() bool {
			return !check.Waypoint(n, from, to, via).Empty()
		})
	}
	ga := []netgraph.NodeID{nodes[0], nodes[1]}
	gb := []netgraph.NodeID{nodes[6], nodes[7]}
	reg(Isolated{GroupA: ga, GroupB: gb}, func() bool {
		return check.Isolated(n, ga, gb, nil) != nil
	})
	reg(LoopFree{}, func() bool {
		return len(check.FindLoopsAll(n)) > 0
	})
	reg(BlackHoleFree{Sinks: sinks}, func() bool {
		return len(check.FindBlackHoles(n, sinks)) > 0
	})

	verify := func(step int, what string) {
		t.Helper()
		for _, inv := range invs {
			got, detail, ok := m.Status(inv.id)
			if !ok {
				t.Fatalf("step %d: invariant %d vanished", step, inv.id)
			}
			want := Holds
			if inv.oracle() {
				want = Violated
			}
			if got != want {
				t.Fatalf("step %d (%s): %v: monitor says %v (%s), scratch says %v",
					step, what, inv.spec, got, detail, want)
			}
		}
	}

	var live []core.RuleID
	nextID := core.RuleID(1)
	randomRule := func() core.Rule {
		l := links[rng.Intn(len(links))]
		src := g.Link(l).Src
		lo := uint64(rng.Intn(1 << 12))
		r := core.Rule{
			ID:       nextID,
			Source:   src,
			Link:     l,
			Match:    ipnet.Interval{Lo: lo, Hi: lo + 1 + uint64(rng.Intn(1<<10))},
			Priority: core.Priority(rng.Intn(8)),
		}
		if rng.Intn(8) == 0 { // occasional explicit drop rule
			r.Link = netgraph.NoLink
		}
		nextID++
		return r
	}

	var d core.Delta
	for step := 0; step < 250; step++ {
		switch {
		case step%10 == 9: // atomic batch of inserts and removals
			var ops []core.BatchOp
			removed := map[core.RuleID]bool{}
			for k := 0; k < 1+rng.Intn(5); k++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					id := live[rng.Intn(len(live))]
					if removed[id] {
						continue
					}
					removed[id] = true
					ops = append(ops, core.RemoveOp(id))
				} else {
					r := randomRule()
					live = append(live, r.ID)
					ops = append(ops, core.InsertOp(r))
				}
			}
			if err := n.ApplyBatch(ops, &d, 0); err != nil {
				t.Fatal(err)
			}
			var kept []core.RuleID
			for _, id := range live {
				if !removed[id] {
					kept = append(kept, id)
				}
			}
			live = kept
			apply(m, &d)
			verify(step, "batch")
		case len(live) > 0 && rng.Intn(5) < 2: // removal
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := n.RemoveRuleInto(id, &d); err != nil {
				t.Fatal(err)
			}
			apply(m, &d)
			verify(step, "remove")
		default: // insertion, via the caller-ran-the-loop-check path the
			// Checker and server use
			r := randomRule()
			live = append(live, r.ID)
			if err := n.InsertRuleInto(r, &d); err != nil {
				t.Fatal(err)
			}
			m.ApplyWithLoops(&d, check.FindLoopsDelta(n, &d), true)
			verify(step, "insert")
		}
	}

	// The workload must have exercised the incremental machinery, not just
	// re-evaluated everything every time.
	st := m.Stats()
	if st.Skips == 0 {
		t.Fatalf("stats %+v: dependency tracking never skipped anything", st)
	}
	if st.Events == 0 {
		t.Fatalf("stats %+v: churn produced no verdict transitions", st)
	}

	// RecheckAll agrees with the incrementally maintained verdicts.
	if ev := m.RecheckAll(); len(ev) != 0 {
		t.Fatalf("RecheckAll found stale verdicts: %v", ev)
	}
}

// TestConcurrentSubscribersAndQueries exercises the monitor's lock
// discipline under -race: updates stream while subscribers drain and
// other goroutines query.
func TestConcurrentSubscribersAndQueries(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	id, _ := m.Register(Reachable{From: nodes[0], To: nodes[1]})
	m.Register(LoopFree{})

	sub := m.Subscribe(16)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C {
		}
	}()
	queries := make(chan struct{})
	go func() {
		defer close(queries)
		for i := 0; i < 200; i++ {
			m.Status(id)
			m.Stats()
			m.NumRegistered()
		}
	}()

	for i := 0; i < 100; i++ {
		mustInsert(t, n, m, core.Rule{ID: core.RuleID(i + 1), Source: nodes[0], Link: links[0],
			Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1})
		mustRemove(t, n, m, core.RuleID(i+1))
	}
	<-queries
	sub.Cancel()
	<-drained
}

// TestRegisterRefcount: registering an identical spec returns the same id
// with a reference added; the registration survives until the last
// Unregister releases it.
func TestRegisterRefcount(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	id1, _ := m.Register(Reachable{From: nodes[0], To: nodes[1]})
	id2, _ := m.Register(Reachable{From: nodes[0], To: nodes[1]})
	if id1 != id2 {
		t.Fatalf("duplicate spec got distinct ids %d, %d", id1, id2)
	}
	if got := m.NumRegistered(); got != 1 {
		t.Fatalf("NumRegistered = %d, want 1 (deduped)", got)
	}
	other, _ := m.Register(Reachable{From: nodes[1], To: nodes[2]})
	if other == id1 {
		t.Fatal("distinct spec shared an id")
	}
	if !m.Unregister(id1) {
		t.Fatal("first unregister failed")
	}
	// One reference remains: still registered, still evaluated.
	if _, _, ok := m.Status(id1); !ok {
		t.Fatal("refcounted invariant vanished after one unregister")
	}
	if ev := mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1}); len(ev) != 1 {
		t.Fatalf("refcounted invariant not evaluated: %v", ev)
	}
	if !m.Unregister(id1) {
		t.Fatal("second unregister failed")
	}
	if _, _, ok := m.Status(id1); ok {
		t.Fatal("invariant survived final unregister")
	}
	if m.Unregister(id1) {
		t.Fatal("triple unregister succeeded")
	}
	// Re-registering now allocates a fresh id (ids are never reused).
	id3, _ := m.Register(Reachable{From: nodes[0], To: nodes[1]})
	if id3 == id1 {
		t.Fatalf("id %d reused after final unregister", id3)
	}
}

// TestBlackHoleFreeSinksNotConflated: BlackHoleFree registrations with
// different sink sets are distinct invariants (the wire String form hides
// the sinks, the dedup key must not).
func TestBlackHoleFreeSinksNotConflated(t *testing.T) {
	g, nodes, _ := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	a, _ := m.Register(BlackHoleFree{})
	b, _ := m.Register(BlackHoleFree{Sinks: map[netgraph.NodeID]bool{nodes[3]: true}})
	if a == b {
		t.Fatal("different sink sets conflated")
	}
	c, _ := m.Register(BlackHoleFree{Sinks: map[netgraph.NodeID]bool{nodes[3]: true}})
	if b != c {
		t.Fatal("identical sink sets not deduped")
	}
}

// TestIndexBornDirtyLinks: a link added after an invariant's last
// evaluation must conservatively dirty it — the index seeds new links
// with every dep-tracked invariant, and a precise re-evaluation then
// clears the seeds it does not confirm.
func TestIndexBornDirtyLinks(t *testing.T) {
	g := netgraph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	la := g.AddLink(a, b)
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	id, st := m.Register(Reachable{From: a, To: c})
	if st != Violated {
		t.Fatalf("initial status: %v", st)
	}

	// A new link b->c appears, then a rule on it plus the a->b hop: the
	// first update touches only the born-after link, and must still dirty
	// the invariant.
	lb := g.AddLink(b, c)
	mustInsert(t, n, m, core.Rule{ID: 1, Source: a, Link: la,
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1})
	ev := mustInsert(t, n, m, core.Rule{ID: 2, Source: b, Link: lb,
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1})
	if len(ev) != 1 || ev[0].ID != id || ev[0].Kind != Cleared {
		t.Fatalf("born-dirty link missed: %v", ev)
	}

	// After the re-evaluation the seeds are precise again: a rule on a
	// link out of a node unreachable from a must be skipped (the fixpoint
	// from a never examines d's out-links).
	d := g.AddNode("d")
	ld := g.AddLink(d, c)
	before := m.Stats()
	mustInsert(t, n, m, core.Rule{ID: 3, Source: d, Link: ld,
		Match: ipnet.Interval{Lo: 0, Hi: 10}, Priority: 1})
	// The new link dirties once (born dirty), and the re-evaluation drops
	// it from the dependency set...
	mid := m.Stats()
	if mid.Evaluations != before.Evaluations+1 {
		t.Fatalf("born-dirty evaluation missing: %+v -> %+v", before, mid)
	}
	// ...so further churn on it is skipped.
	mustInsert(t, n, m, core.Rule{ID: 4, Source: d, Link: ld,
		Match: ipnet.Interval{Lo: 20, Hi: 30}, Priority: 1})
	after := m.Stats()
	if after.Evaluations != mid.Evaluations || after.Skips != mid.Skips+1 {
		t.Fatalf("unrelated new link not skipped after re-evaluation: %+v -> %+v", mid, after)
	}

	// An audit between a link's birth and the first update past it
	// re-records dependencies over a topology the index has not grown to
	// yet; the index must come out as exact as from an update, so the
	// invariant's release leaves no bit behind.
	g.AddLink(d, a)
	if ev := m.RecheckAll(); len(ev) != 0 {
		t.Fatalf("audit found stale verdicts: %v", ev)
	}
	mustInsert(t, n, m, core.Rule{ID: 5, Source: d, Link: ld,
		Match: ipnet.Interval{Lo: 40, Hi: 50}, Priority: 1})
	m.Unregister(id)
	if bits := m.IndexBits(); bits != 0 {
		t.Fatalf("%d index bits outlived the last invariant", bits)
	}
}

// TestConcurrentRegistrationChurn emulates the server's lock discipline
// under -race: a writer mutates the data plane and applies deltas under a
// write lock while reader goroutines register, query, and unregister
// (including deliberate dedup collisions) under read locks.
func TestConcurrentRegistrationChurn(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	m.Register(Reachable{From: nodes[0], To: nodes[3]})

	var lk sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lk.RLock()
				// Half the goroutines fight over the same spec (dedup
				// path), half register distinct ones.
				var s Spec
				if w%2 == 0 {
					s = Waypoint{From: nodes[0], To: nodes[2], Via: nodes[1]}
				} else {
					s = Reachable{From: nodes[w%4], To: nodes[(w+i)%4]}
				}
				id, _ := m.Register(s)
				m.Status(id)
				m.Invariants()
				m.Unregister(id)
				lk.RUnlock()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		lk.Lock()
		var d core.Delta
		if err := n.InsertRuleInto(core.Rule{ID: core.RuleID(i + 10), Source: nodes[i%3], Link: links[i%3],
			Match: ipnet.Interval{Lo: 0, Hi: 50}, Priority: core.Priority(i % 5)}, &d); err != nil {
			t.Error(err)
			lk.Unlock()
			break
		}
		apply(m, &d)
		if i%2 == 1 {
			if err := n.RemoveRuleInto(core.RuleID(i+10), &d); err != nil {
				t.Error(err)
				lk.Unlock()
				break
			}
			apply(m, &d)
		}
		lk.Unlock()
	}
	wg.Wait()
	if ev := m.RecheckAll(); len(ev) != 0 {
		t.Fatalf("stale verdicts after concurrent churn: %v", ev)
	}
}

// TestShardedEquivalence10K is the scale ground-truth test for the
// dependency index and its atom-granular refinement: a monitor consumes a
// randomized churn stream at 10⁴ standing reachability invariants (128
// subgoals, one per source), and every cached verdict must equal a
// from-scratch fixpoint oracle.
func TestShardedEquivalence10K(t *testing.T) {
	const numNodes, numInv = 128, 10_000
	rng := rand.New(rand.NewSource(7))

	g := netgraph.New()
	nodes := make([]netgraph.NodeID, numNodes)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	var links []netgraph.LinkID
	for i := range nodes { // ring + chords: cycles, fan-in, fan-out
		links = append(links, g.AddLink(nodes[i], nodes[(i+1)%numNodes]))
		if i%3 == 0 {
			links = append(links, g.AddLink(nodes[i], nodes[(i+numNodes/2)%numNodes]))
		}
	}
	n := core.NewNetwork(g, core.Options{})

	sharded := New(n, 0)

	// Register 10⁴ pairs, diagonal by diagonal.
	type pair struct{ from, to netgraph.NodeID }
	var pairs []pair
	ids := make([]ID, 0, numInv)
	for d := 1; len(pairs) < numInv; d++ {
		for i := 0; i < numNodes && len(pairs) < numInv; i++ {
			p := pair{nodes[i], nodes[(i+d)%numNodes]}
			pairs = append(pairs, p)
			id, _ := sharded.Register(Reachable{From: p.from, To: p.to})
			ids = append(ids, id)
		}
	}

	// Oracle: one single-source fixpoint per distinct source answers all
	// its pairs.
	verify := func(step int) {
		t.Helper()
		reach := map[netgraph.NodeID][]*bitset.Set{}
		for i, p := range pairs {
			r, ok := reach[p.from]
			if !ok {
				r = check.ReachFrom(n, p.from, nil)
				reach[p.from] = r
			}
			want := Holds
			if int(p.to) >= len(r) || r[p.to] == nil || r[p.to].Empty() {
				want = Violated
			}
			got, _, ok := sharded.Status(ids[i])
			if !ok {
				t.Fatalf("step %d: lost invariant %d", step, ids[i])
			}
			if got != want {
				t.Fatalf("step %d: monitor disagrees with oracle on %v->%v: got %v want %v",
					step, p.from, p.to, got, want)
			}
		}
	}

	var live []core.RuleID
	nextID := core.RuleID(1)
	var d core.Delta
	const steps = 160
	for step := 0; step < steps; step++ {
		if len(live) > 4 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := n.RemoveRuleInto(id, &d); err != nil {
				t.Fatal(err)
			}
		} else {
			l := links[rng.Intn(len(links))]
			lo := uint64(rng.Intn(1 << 10))
			r := core.Rule{
				ID: nextID, Source: g.Link(l).Src, Link: l,
				Match:    ipnet.Interval{Lo: lo, Hi: lo + 1 + uint64(rng.Intn(1<<8))},
				Priority: core.Priority(rng.Intn(4)),
			}
			nextID++
			live = append(live, r.ID)
			if err := n.InsertRuleInto(r, &d); err != nil {
				t.Fatal(err)
			}
		}
		apply(sharded, &d)
		if step%40 == 39 {
			verify(step) // mid-run spot check
		}
	}
	verify(steps)

	ss := sharded.Stats()
	if ss.Subgoals != numNodes || ss.Registered != numInv {
		t.Fatalf("stats %+v: want %d subgoals under %d invariants", ss, numNodes, numInv)
	}
	if ss.Skips == 0 || ss.Evaluations == 0 {
		t.Fatalf("stats %+v: churn exercised nothing", ss)
	}
	// And the incrementally maintained verdicts survive an audit.
	if ev := sharded.RecheckAll(); len(ev) != 0 {
		t.Fatalf("RecheckAll found stale sharded verdicts: %v", ev)
	}
}
