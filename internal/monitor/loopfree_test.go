package monitor

import (
	"fmt"
	"math/rand"
	"testing"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// twoPairs builds a <-> b and c <-> d: two independent places a
// forwarding loop can live.
func twoPairs() (*netgraph.Graph, []netgraph.NodeID, []netgraph.LinkID) {
	g := netgraph.New()
	var nodes []netgraph.NodeID
	for _, name := range []string{"a", "b", "c", "d"} {
		nodes = append(nodes, g.AddNode(name))
	}
	links := []netgraph.LinkID{
		g.AddLink(nodes[0], nodes[1]), // 0: a->b
		g.AddLink(nodes[1], nodes[0]), // 1: b->a
		g.AddLink(nodes[2], nodes[3]), // 2: c->d
		g.AddLink(nodes[3], nodes[2]), // 3: d->c
	}
	return g, nodes, links
}

// TestLoopFreeBatchAwareClearing walks LoopFree through two independent
// loops cleared one at a time. While violated, evaluation re-walks only
// the recorded looping atoms plus the delta's additions (satellite of
// the §4.3.1 loop argument lifted to atoms), so clearing the first loop
// must still see the second, and only clearing both flips the verdict.
func TestLoopFreeBatchAwareClearing(t *testing.T) {
	g, nodes, links := twoPairs()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)

	id, st := m.Register(LoopFree{})
	if st != Holds {
		t.Fatalf("empty plane: %v", st)
	}
	oracle := func(step string) {
		t.Helper()
		got, _, ok := m.Status(id)
		if !ok {
			t.Fatalf("%s: invariant vanished", step)
		}
		want := Holds
		if len(check.FindLoopsAll(n)) > 0 {
			want = Violated
		}
		if got != want {
			t.Fatalf("%s: monitor says %v, scratch says %v", step, got, want)
		}
	}

	r := func(id core.RuleID, src, link int, lo, hi uint64) core.Rule {
		return core.Rule{ID: id, Source: nodes[src], Link: links[link],
			Match: ipnet.Interval{Lo: lo, Hi: hi}, Priority: 1}
	}
	// Loop 1 on [0,100] through a<->b.
	mustInsert(t, n, m, r(1, 0, 0, 0, 100))
	if ev := mustInsert(t, n, m, r(2, 1, 1, 0, 100)); len(ev) != 1 || ev[0].Kind != Violation {
		t.Fatalf("loop 1 closed: events %v", ev)
	}
	oracle("loop 1")

	// Loop 2 on [200,300] through c<->d, inserted while already
	// violated: the batch-aware path must walk the new atoms too.
	mustInsert(t, n, m, r(3, 2, 2, 200, 300))
	if ev := mustInsert(t, n, m, r(4, 3, 3, 200, 300)); len(ev) != 0 {
		t.Fatalf("still violated, no transition expected: %v", ev)
	}
	oracle("loop 2 added")

	// Clearing loop 1 must NOT clear the verdict — loop 2 remains, and
	// the restricted re-walk has to find it among the recorded atoms.
	if ev := mustRemove(t, n, m, 2); len(ev) != 0 {
		t.Fatalf("loop 2 still present, got events %v", ev)
	}
	oracle("loop 1 cleared")

	// Clearing loop 2 flips to Holds.
	if ev := mustRemove(t, n, m, 4); len(ev) != 1 || ev[0].Kind != Cleared {
		t.Fatalf("both loops cleared: events %v", ev)
	}
	oracle("both cleared")

	if got := m.Stats().LoopRescanAtoms; got == 0 {
		t.Fatal("violated-state evaluations should have counted rescan atoms")
	}
}

// TestLoopFreeViolatedEquivalenceChurn cross-checks the batch-aware
// violated-state clearing against a from-scratch FindLoopsAll oracle
// after every update of a randomized insert/remove workload, with atom
// GC on so atom ids die and are born mid-violation (exercising the
// born-since-stamp rescan guard).
func TestLoopFreeViolatedEquivalenceChurn(t *testing.T) {
	for _, gc := range []bool{false, true} {
		t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g, nodes, links := twoPairs()
			n := core.NewNetwork(g, core.Options{GC: gc})
			m := New(n, 0)
			id, _ := m.Register(LoopFree{})

			var live []core.RuleID
			next := core.RuleID(1)
			for step := 0; step < 400; step++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					idr := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					mustRemove(t, n, m, idr)
				} else {
					lo := uint64(rng.Intn(1000)) * 10
					hi := lo + uint64(rng.Intn(200)) + 1
					li := rng.Intn(len(links))
					src := nodes[[]int{0, 1, 2, 3}[li]]
					mustInsert(t, n, m, core.Rule{ID: next, Source: src, Link: links[li],
						Match: ipnet.Interval{Lo: lo, Hi: hi}, Priority: core.Priority(rng.Intn(4) + 1)})
					live = append(live, next)
					next++
				}
				got, _, _ := m.Status(id)
				want := Holds
				if len(check.FindLoopsAll(n)) > 0 {
					want = Violated
				}
				if got != want {
					t.Fatalf("step %d: monitor %v, scratch %v", step, got, want)
				}
			}
			if m.Stats().LoopRescanAtoms == 0 {
				t.Fatal("churn never exercised the violated-state rescan")
			}
		})
	}
}

// TestApplyTraceSink checks the monitor-side pipeline trace: a sink
// installed with SetTraceSink sees one record per evaluation pass with
// the delta and fan-out sizes filled in, and uninstalling stops the
// flow.
func TestApplyTraceSink(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)
	m.Register(Reachable{From: nodes[0], To: nodes[1]})

	var got []ApplyTrace
	m.SetTraceSink(func(tr ApplyTrace) { got = append(got, tr) })

	mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	if len(got) != 1 {
		t.Fatalf("sink saw %d records, want 1", len(got))
	}
	tr := got[0]
	if tr.Update != m.UpdateSeq() {
		t.Fatalf("record identity wrong: %+v (seq=%d)", tr, m.UpdateSeq())
	}
	if tr.Added == 0 || tr.Links == 0 {
		t.Fatalf("delta shape missing: %+v", tr)
	}
	if tr.Dirtied != 1 || tr.Evaluated != 1 {
		t.Fatalf("fan-out wrong: %+v", tr)
	}
	if tr.Events != 1 {
		t.Fatalf("transition not counted: %+v", tr)
	}
	if tr.DirtyNs < 0 || tr.EvalNs < 0 || tr.PublishNs < 0 {
		t.Fatalf("negative stage times: %+v", tr)
	}

	m.SetTraceSink(nil)
	mustRemove(t, n, m, 1)
	if len(got) != 1 {
		t.Fatalf("uninstalled sink still fired: %d records", len(got))
	}
}
