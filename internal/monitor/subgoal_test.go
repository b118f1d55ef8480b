package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// direct answers a derived spec straight from the check package — no
// monitor, no sharing, no caching — rendered the way the monitor renders
// its detail.
func direct(n *core.Network, s Spec) (Status, string) {
	switch v := s.(type) {
	case Reachable:
		if c := check.Reachable(n, v.From, v.To).Len(); c > 0 {
			return Holds, fmt.Sprintf("%d atom(s) can flow", c)
		}
		return Violated, "no packets can flow"
	case Waypoint:
		if c := check.Waypoint(n, v.From, v.To, v.Via).Len(); c > 0 {
			return Violated, fmt.Sprintf("%d atom(s) bypass the waypoint", c)
		}
		return Holds, "all flows traverse the waypoint"
	case Isolated:
		for _, a := range v.GroupA {
			for _, b := range v.GroupB {
				if c := check.Reachable(n, a, b).Len(); c > 0 {
					return Violated, fmt.Sprintf("%d atom(s) leak %d -> %d", c, a, b)
				}
			}
		}
		return Holds, "groups are isolated"
	case LoopFree:
		if len(check.FindLoopsAll(n)) > 0 {
			return Violated, ""
		}
		return Holds, ""
	case BlackHoleFree:
		if len(check.FindBlackHoles(n, v.Sinks)) > 0 {
			return Violated, ""
		}
		return Holds, ""
	}
	panic("unknown spec")
}

// TestSharedVsUnsharedDifferential holds the shared-subgoal monitor to
// two references under seeded random topology and rule churn with
// Register/Unregister interleaved: after every update each invariant's
// verdict equals the direct check-package answer, and the events the
// shared monitor emitted for it equal those of a monitor holding that
// one spec alone (so nothing is lost, added or reordered by sharing).
//
// In the "pinned" variant every interval boundary churn can use is held
// by an anchor rule, so no update splits an atom silently and the atom
// count in every Detail is exact: Detail is then compared byte for byte
// too. The "free" variants draw arbitrary intervals (with and without
// atom GC), where a retained count may trail a label-neutral split, and
// compare verdicts and events only.
func TestSharedVsUnsharedDifferential(t *testing.T) {
	for _, mode := range []struct {
		name   string
		pinned bool
		gc     bool
	}{{"pinned", true, false}, {"free", false, false}, {"free-gc", false, true}} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				sharedVsUnshared(t, seed, mode.pinned, mode.gc)
			}
		})
	}
}

func sharedVsUnshared(t *testing.T, seed int64, pinned, gc bool) {
	rng := rand.New(rand.NewSource(seed))
	const numNodes, slice = 12, 256

	g := netgraph.New()
	nodes := make([]netgraph.NodeID, numNodes)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	var links []netgraph.LinkID
	have := map[[2]int]bool{}
	for len(links) < 34 { // dense enough for cycles, fan-in and dead ends
		a, b := rng.Intn(numNodes), rng.Intn(numNodes)
		if a == b || have[[2]int{a, b}] {
			continue
		}
		have[[2]int{a, b}] = true
		links = append(links, g.AddLink(nodes[a], nodes[b]))
	}
	pinA, pinB := g.AddNode("pinA"), g.AddNode("pinB")
	pinLink := g.AddLink(pinA, pinB)
	n := core.NewNetwork(g, core.Options{GC: gc})
	var d core.Delta
	nextRule := core.RuleID(1)
	if pinned {
		for k := 0; k < 16; k++ {
			r := core.Rule{ID: nextRule, Source: pinA, Link: pinLink,
				Match: ipnet.Interval{Lo: uint64(k * slice), Hi: uint64((k + 1) * slice)}, Priority: 1}
			nextRule++
			if err := n.InsertRuleInto(r, &d); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The spec pool: a sources × targets reach grid, waypoints sharing and
	// not sharing (from, via), multi-source isolation, both globals.
	src, dst := nodes[:4], nodes[4:10]
	var pool []Spec
	for _, a := range src {
		for _, b := range dst {
			pool = append(pool, Reachable{From: a, To: b})
		}
	}
	pool = append(pool,
		Waypoint{From: src[0], To: dst[0], Via: nodes[10]},
		Waypoint{From: src[0], To: dst[1], Via: nodes[10]}, // shares (src0, n10)
		Waypoint{From: src[1], To: dst[0], Via: nodes[11]},
		Waypoint{From: src[0], To: dst[2], Via: nodes[11]},
		Isolated{GroupA: []netgraph.NodeID{src[0], src[1], src[2]}, GroupB: []netgraph.NodeID{dst[4], dst[5]}},
		Isolated{GroupA: []netgraph.NodeID{src[3], nodes[10]}, GroupB: []netgraph.NodeID{dst[0], nodes[11]}},
		LoopFree{},
		BlackHoleFree{Sinks: map[netgraph.NodeID]bool{dst[5]: true, pinB: true}},
	)

	shared := New(n, 0)
	type reg struct {
		id     ID
		single *Monitor
	}
	live := map[int]*reg{} // pool index -> registration
	register := func(i int) {
		r := &reg{single: New(n, 1)}
		r.id, _ = shared.Register(pool[i])
		r.single.Register(pool[i])
		r.single.ResumeUpdates(shared.UpdateSeq())
		live[i] = r
	}
	for i := range pool {
		if rng.Intn(4) > 0 {
			register(i)
		}
	}

	verify := func(step int, events []Event) {
		t.Helper()
		for i, ev := range events {
			if i > 0 && (ev.ID <= events[i-1].ID || ev.Seq != events[i-1].Seq+1) {
				t.Fatalf("seed %d step %d: events out of invariant-id order: %v", seed, step, events)
			}
		}
		for i, r := range live {
			wantStatus, wantDetail := direct(n, pool[i])
			got, detail, ok := shared.Status(r.id)
			if !ok || got != wantStatus {
				t.Fatalf("seed %d step %d: %v: shared monitor says %v (%s), direct check says %v",
					seed, step, pool[i], got, detail, wantStatus)
			}
			if pinned && wantDetail != "" && detail != wantDetail {
				t.Fatalf("seed %d step %d: %v: detail %q, direct check renders %q",
					seed, step, pool[i], detail, wantDetail)
			}
		}
	}

	var rules []core.RuleID
	randomRule := func() core.Rule {
		l := links[rng.Intn(len(links))]
		var iv ipnet.Interval
		if pinned {
			lo := rng.Intn(15)
			iv = ipnet.Interval{Lo: uint64(lo * slice), Hi: uint64((lo + 1 + rng.Intn(16-lo-1)) * slice)}
		} else {
			lo := uint64(rng.Intn(16 * slice))
			iv = ipnet.Interval{Lo: lo, Hi: lo + 1 + uint64(rng.Intn(4*slice))}
		}
		r := core.Rule{ID: nextRule, Source: g.Link(l).Src, Link: l, Match: iv, Priority: core.Priority(rng.Intn(6))}
		if rng.Intn(10) == 0 {
			r.Link = netgraph.NoLink // explicit drop
		}
		nextRule++
		return r
	}

	for step := 0; step < 220; step++ {
		// Interleave registration churn with the updates.
		if rng.Intn(4) == 0 {
			i := rng.Intn(len(pool))
			if r := live[i]; r != nil {
				if !shared.Unregister(r.id) {
					t.Fatalf("seed %d step %d: unregister %v failed", seed, step, pool[i])
				}
				delete(live, i)
			} else {
				register(i)
			}
		}

		switch {
		case step%9 == 8: // atomic batch
			var ops []core.BatchOp
			gone := map[core.RuleID]bool{}
			for k := 0; k < 2+rng.Intn(4); k++ {
				if len(rules) > 0 && rng.Intn(2) == 0 {
					if id := rules[rng.Intn(len(rules))]; !gone[id] {
						gone[id] = true
						ops = append(ops, core.RemoveOp(id))
					}
				} else {
					r := randomRule()
					rules = append(rules, r.ID)
					ops = append(ops, core.InsertOp(r))
				}
			}
			if err := n.ApplyBatch(ops, &d, 0); err != nil {
				t.Fatal(err)
			}
			kept := rules[:0]
			for _, id := range rules {
				if !gone[id] {
					kept = append(kept, id)
				}
			}
			rules = kept
		case len(rules) > 0 && rng.Intn(5) < 2:
			i := rng.Intn(len(rules))
			id := rules[i]
			rules = append(rules[:i], rules[i+1:]...)
			if err := n.RemoveRuleInto(id, &d); err != nil {
				t.Fatal(err)
			}
		default:
			r := randomRule()
			rules = append(rules, r.ID)
			if err := n.InsertRuleInto(r, &d); err != nil {
				t.Fatal(err)
			}
		}

		// Half the updates carry the caller-ran-the-loop-check hint.
		var loops []check.Loop
		known := step%2 == 0
		if known {
			loops = check.FindLoopsDelta(n, &d)
		}
		events := shared.ApplyWithLoops(&d, loops, known)
		byID := map[ID][]Event{}
		for _, ev := range events {
			byID[ev.ID] = append(byID[ev.ID], ev)
		}
		for i, r := range live {
			want := r.single.ApplyWithLoops(&d, loops, known)
			got := byID[r.id]
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %v: shared monitor emitted %v, single-spec monitor %v",
					seed, step, pool[i], got, want)
			}
			for k := range want {
				if got[k].Kind != want[k].Kind || got[k].Detail != want[k].Detail ||
					got[k].FirstUpdate != want[k].FirstUpdate || got[k].LastUpdate != want[k].LastUpdate {
					t.Fatalf("seed %d step %d: %v: shared event %+v, single-spec event %+v",
						seed, step, pool[i], got[k], want[k])
				}
			}
			delete(byID, r.id)
		}
		if len(byID) != 0 {
			t.Fatalf("seed %d step %d: events for unregistered invariants: %v", seed, step, byID)
		}
		verify(step, events)
	}

	st := shared.Stats()
	if st.Events == 0 || st.Skips == 0 || st.Evaluations == 0 {
		t.Fatalf("seed %d: stats %+v: churn exercised nothing", seed, st)
	}
	if ev := shared.RecheckAll(); len(ev) != 0 {
		t.Fatalf("seed %d: RecheckAll found stale verdicts: %v", seed, ev)
	}
}

// battery is the operator shape the subgoal layer exists for: sources
// s0..s15 each hand everything to one of four core nodes, every core
// node delivers slice j to target tj, and the battery is reach(si, tj)
// for all 16 × 16 pairs — 256 invariants over 16 subgoals.
type battery struct {
	net      *core.Network
	graph    *netgraph.Graph
	src, dst []netgraph.NodeID
	core     []netgraph.NodeID
	detour   netgraph.LinkID // core0 -> dead end
	width    uint64
	d        core.Delta
}

func buildBattery(t testing.TB) *battery {
	t.Helper()
	g := netgraph.New()
	b := &battery{graph: g, width: 1 << 8}
	for k := 0; k < 4; k++ {
		b.core = append(b.core, g.AddNode(fmt.Sprintf("c%d", k)))
	}
	for i := 0; i < 16; i++ {
		b.src = append(b.src, g.AddNode(fmt.Sprintf("s%d", i)))
		b.dst = append(b.dst, g.AddNode(fmt.Sprintf("t%d", i)))
	}
	b.detour = g.AddLink(b.core[0], g.AddNode("dead"))
	b.net = core.NewNetwork(g, core.Options{})
	id := core.RuleID(1)
	insert := func(src netgraph.NodeID, l netgraph.LinkID, lo, hi uint64) {
		t.Helper()
		if err := b.net.InsertRuleInto(core.Rule{ID: id, Source: src, Link: l,
			Match: ipnet.Interval{Lo: lo, Hi: hi}, Priority: 1}, &b.d); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i, s := range b.src {
		insert(s, g.AddLink(s, b.core[i%4]), 0, 16*b.width)
	}
	for _, c := range b.core {
		for j, e := range b.dst {
			insert(c, g.AddLink(c, e), uint64(j)*b.width, uint64(j+1)*b.width)
		}
	}
	return b
}

// toggle steers slice j at core0 onto the dead end (on) or back (off):
// the four sources behind core0 lose or regain tj.
func (b *battery) toggle(t testing.TB, m *Monitor, j int, on bool) []Event {
	t.Helper()
	id := core.RuleID(10_000 + j)
	if on {
		if err := b.net.InsertRuleInto(core.Rule{ID: id, Source: b.core[0], Link: b.detour,
			Match: ipnet.Interval{Lo: uint64(j) * b.width, Hi: uint64(j+1) * b.width}, Priority: 9}, &b.d); err != nil {
			t.Fatal(err)
		}
	} else if err := b.net.RemoveRuleInto(id, &b.d); err != nil {
		t.Fatal(err)
	}
	return apply(m, &b.d)
}

// sinks exempts the targets from black-hole freedom, leaving the dead
// end behind core0 as the only place a toggle can open a hole.
func (b *battery) sinks() map[netgraph.NodeID]bool {
	sinks := map[netgraph.NodeID]bool{}
	for _, e := range b.dst {
		sinks[e] = true
	}
	return sinks
}

// TestSubgoalLifecycleAndCounts pins the shared layer's accounting on the
// 16 × 16 battery: registrations past a subgoal's first run no fixpoint
// and add no index bits, an update evaluates at most one fixpoint per
// subgoal plus the globals, the last consumer's Unregister returns the
// index to its prior population and frees the slot for reuse, and Reset
// leaves nothing behind.
func TestSubgoalLifecycleAndCounts(t *testing.T) {
	b := buildBattery(t)
	m := New(b.net, 0)
	var ids []ID
	for i, s := range b.src {
		for j, e := range b.dst {
			before, bitsBefore := m.Stats(), m.IndexBits()
			id, st := m.Register(Reachable{From: s, To: e})
			if st != Holds {
				t.Fatalf("reach s%d t%d: %v at registration", i, j, st)
			}
			ids = append(ids, id)
			after, bitsAfter := m.Stats(), m.IndexBits()
			wantFix := before.Fixpoints
			if j == 0 {
				wantFix++ // the source's first invariant runs its fixpoint
			} else if bitsAfter != bitsBefore {
				t.Fatalf("reach s%d t%d on a live subgoal moved the index: %v -> %v",
					i, j, bitsBefore, bitsAfter)
			}
			if after.Fixpoints != wantFix || after.Subgoals != i+1 {
				t.Fatalf("reach s%d t%d: fixpoints %d -> %d, subgoals %d (want %d, %d)",
					i, j, before.Fixpoints, after.Fixpoints, after.Subgoals, wantFix, i+1)
			}
		}
	}
	m.Register(LoopFree{})
	m.Register(BlackHoleFree{Sinks: b.sinks()})
	if st := m.Stats(); st.Registered != 258 || st.Subgoals != 16 || st.Fixpoints != 16 {
		t.Fatalf("battery stats %+v: want 258 invariants on 16 subgoals after 16 fixpoints", st)
	}

	// One update = at most one fixpoint per subgoal plus the globals, and
	// exactly the four sources behind core0 lose (then regain) the target.
	for j := 0; j < 4; j++ {
		for _, on := range []bool{true, false} {
			before := m.Stats()
			ev := b.toggle(t, m, j, on)
			after := m.Stats()
			evals := after.Evaluations - before.Evaluations
			if evals == 0 || evals > uint64(after.Subgoals)+2 {
				t.Fatalf("toggle %d/%v: %d evaluations, want 1..%d", j, on, evals, after.Subgoals+2)
			}
			if evals+(after.Skips-before.Skips) != uint64(after.Subgoals)+2 {
				t.Fatalf("toggle %d/%v: evals %d + skips %d != %d fixpoint units", j, on,
					evals, after.Skips-before.Skips, after.Subgoals+2)
			}
			// Four reach invariants flip, and blackholefree with them (the
			// dead end swallows the slice).
			if len(ev) != 5 {
				t.Fatalf("toggle %d/%v: events %v, want 4 reach transitions + blackholefree", j, on, ev)
			}
		}
	}

	// A waypoint opens a new subgoal (s0, avoid c0); a second one over the
	// same pair shares it; the last Unregister gives everything back.
	bits := m.IndexBits
	base, baseBits := m.Stats(), bits()
	w1, _ := m.Register(Waypoint{From: b.src[0], To: b.dst[0], Via: b.core[0]})
	one, oneBits := m.Stats(), bits()
	if one.Subgoals != 17 || one.Fixpoints != base.Fixpoints+1 || oneBits <= baseBits {
		t.Fatalf("first waypoint: %+v (%d bits) -> %+v (%d bits)", base, baseBits, one, oneBits)
	}
	slot := m.bySub[subKey{b.src[0], b.core[0]}].slot
	w2, _ := m.Register(Waypoint{From: b.src[0], To: b.dst[1], Via: b.core[0]})
	two := m.Stats()
	if two.Subgoals != 17 || two.Fixpoints != one.Fixpoints || bits() != oneBits {
		t.Fatalf("second waypoint on the shared subgoal: %+v -> %+v (%d -> %d bits)", one, two, oneBits, bits())
	}
	m.Unregister(w1)
	if st := m.Stats(); st.Subgoals != 17 || bits() != oneBits {
		t.Fatalf("subgoal released while a consumer remains: %+v (%d bits)", st, bits())
	}
	m.Unregister(w2)
	if st := m.Stats(); st.Subgoals != 16 || bits() != baseBits {
		t.Fatalf("last consumer gone: %+v (%d bits), want the index back at %d bits", st, bits(), baseBits)
	}
	if _, _, ok := m.Status(w2); ok {
		t.Fatal("unregistered waypoint still has a status")
	}
	m.Register(Reachable{From: b.core[1], To: b.dst[3]})
	if got := m.bySub[subKey{b.core[1], netgraph.NoNode}].slot; got != slot {
		t.Fatalf("freed slot %d not reused (new subgoal got %d)", slot, got)
	}

	m.Reset(b.net)
	if st := m.Stats(); st.Registered != 0 || st.Subgoals != 0 || bits() != 0 {
		t.Fatalf("after Reset: %+v (%d bits)", st, bits())
	}
	if _, _, ok := m.Status(ids[0]); ok {
		t.Fatal("invariant survived Reset")
	}
}

// TestBatteryPassAllocs pins the allocation cost of one monitor pass on
// the 16 × 16 battery plus both globals: dirty marking, the unit list,
// settling 64 consumers and the black-hole recheck run on pass scratch,
// so what is left is one dependency summary per re-run subgoal (four
// here; check.ReachSummary's own pin) and the events a flip emits.
func TestBatteryPassAllocs(t *testing.T) {
	b := buildBattery(t)
	m := New(b.net, 1)
	for _, s := range b.src {
		for _, e := range b.dst {
			m.Register(Reachable{From: s, To: e})
		}
	}
	m.Register(LoopFree{})
	m.Register(BlackHoleFree{Sinks: b.sinks()})
	on := false
	pass := func() {
		on = !on
		if ev := b.toggle(t, m, 5, on); len(ev) != 5 {
			t.Fatalf("toggle events: %v", ev)
		}
	}
	for i := 0; i < 8; i++ {
		pass() // warm the scratches, the delta buffers and the sketch maps
	}
	// The engine's own toggle is allocation-free once warm, so what is
	// counted is the pass: 4 dependency summaries, the event slice, and
	// one detail string per verdict that moved to a count-bearing answer
	// (measured: 11; 18 under -race, where fmt's printer pool leaks). A
	// per-invariant cost would be 64 evaluations' worth, in the hundreds.
	if got := testing.AllocsPerRun(20, pass); got > 24 {
		t.Fatalf("one battery pass allocates %.1f objects, want ≤ 24", got)
	}
}

// TestStatsWalksNoIndex pins Stats as counters only: the index
// population is a walk of every link bitmap, and a /metrics scrape calls
// Stats once per series. IndexBits is the one walker; a Stats that
// allocates has grown past reading counters.
func TestStatsWalksNoIndex(t *testing.T) {
	b := buildBattery(t)
	m := New(b.net, 1)
	for _, s := range b.src {
		m.Register(Reachable{From: s, To: b.dst[0]})
	}
	if m.IndexBits() == 0 {
		t.Fatal("fixture indexed nothing")
	}
	var st Stats
	if got := testing.AllocsPerRun(20, func() { st = m.Stats() }); got != 0 {
		t.Fatalf("Stats allocates %.1f objects, want 0 (no index walk)", got)
	}
	if st.Subgoals != len(b.src) {
		t.Fatalf("stats %+v: want %d subgoals", st, len(b.src))
	}
}

// TestConcurrentSharedRegistration races registrations of specs that
// share subgoals against each other and against full evaluation passes
// (run with -race): every subgoal is computed once however many
// registrants collide on it, no verdict is lost between a registrant
// attaching and a pass settling, and concurrent release returns the
// monitor to empty.
func TestConcurrentSharedRegistration(t *testing.T) {
	b := buildBattery(t)
	m := New(b.net, 0)
	const workers = 8
	ids := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, s := range b.src {
				// Every worker hits every source: colliding specs (dedup),
				// distinct specs on one subgoal, and a shared waypoint pair.
				for _, spec := range []Spec{
					Reachable{From: s, To: b.dst[0]},
					Reachable{From: s, To: b.dst[1+w%15]},
					Waypoint{From: s, To: b.dst[w], Via: b.core[i%4]},
					Isolated{GroupA: []netgraph.NodeID{s, b.src[(i+1)%16]}, GroupB: []netgraph.NodeID{b.core[(i+2)%4]}},
				} {
					id, _ := m.Register(spec)
					ids[w] = append(ids[w], id)
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Subgoals != 32 || st.Fixpoints != 32 {
		t.Fatalf("stats %+v: want 32 subgoals (16 plain + 16 waypoint pairs), each computed once", st)
	}
	for _, info := range m.Invariants() {
		if want, _ := direct(b.net, info.Spec); info.Status != want {
			t.Fatalf("%v: %v, direct check says %v", info.Spec, info.Status, want)
		}
	}

	// Break t0 for the sources behind core0, then race audits (which
	// re-run and settle every subgoal) against late registrations on
	// those same subgoals and the release of everything registered above.
	b.toggle(t, m, 0, true)
	stop := make(chan struct{})
	audits := make(chan struct{})
	go func() {
		defer close(audits)
		for {
			select {
			case <-stop:
				return
			default:
				if ev := m.RecheckAll(); len(ev) != 0 {
					t.Errorf("audit found stale verdicts: %v", ev)
					return
				}
			}
		}
	}()
	late := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, s := range b.src {
				spec := Reachable{From: s, To: b.dst[0]}
				id, got := m.Register(spec)
				late[w] = append(late[w], id)
				want := Holds
				if i%4 == 0 {
					want = Violated
				}
				if got != want {
					t.Errorf("late reach s%d t0: %v, want %v", i, got, want)
				}
			}
			for _, id := range ids[w] {
				if !m.Unregister(id) {
					t.Errorf("unregister %d failed", id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-audits
	if st := m.Stats(); st.Registered != 16 || st.Subgoals != 16 {
		t.Fatalf("after release: %+v, want the 16 late reach invariants on 16 subgoals", st)
	}
	for w := range late {
		for _, id := range late[w] {
			m.Unregister(id)
		}
	}
	if st := m.Stats(); st.Registered != 0 || st.Subgoals != 0 || m.IndexBits() != 0 {
		t.Fatalf("after final release: %+v, index %v", st, m.IndexBits())
	}
}

// TestSnapshotAtomicUnderChurn pins what the single writer guarantees
// and per-invariant locks could not: a query never observes the middle
// of a pass. While the writer toggles slice 0 — flipping `reach s* t0`
// for the four sources behind core0 together — a reader sees all four
// flipped or none, both in one Invariants() snapshot and over four
// Status calls no pass started between; and a third goroutine
// registering and releasing specs on those same subgoals, with no lock
// outside the monitor's (the server's connection teardown), leaves no
// stale verdict, no subgoal and no index bit behind. Run with -race.
func TestSnapshotAtomicUnderChurn(t *testing.T) {
	b := buildBattery(t)
	m := New(b.net, 0)
	var flip []ID // reach s0/s4/s8/s12 t0
	for i, s := range b.src {
		for j, e := range b.dst {
			id, _ := m.Register(Reachable{From: s, To: e})
			if i%4 == 0 && j == 0 {
				flip = append(flip, id)
			}
		}
	}
	b.toggle(t, m, 0, true) // settle the index on the shape churn returns to
	b.toggle(t, m, 0, false)
	base, baseBits := m.Stats().Subgoals, m.IndexBits()

	mixed := func(violated int, how string) bool {
		if violated != 0 && violated != len(flip) {
			t.Errorf("%s saw %d of %d verdicts flipped: a snapshot from the middle of a pass", how, violated, len(flip))
			return true
		}
		return false
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			violated := 0
			for _, info := range m.Invariants() {
				if info.Status == Violated { // only the four can be
					violated++
				}
			}
			if mixed(violated, "Invariants()") {
				return
			}
			upd := m.UpdateSeq()
			violated = 0
			for _, id := range flip {
				st, detail, ok := m.Status(id)
				if !ok || (st == Violated) != (detail == "no packets can flow") {
					t.Errorf("Status(%d) = %v %q %v", id, st, detail, ok)
					return
				}
				if st == Violated {
					violated++
				}
			}
			// A pass takes its update number as it starts, so an unchanged
			// number means the four reads fell between the same two passes.
			if m.UpdateSeq() == upd && mixed(violated, "four Status calls within one update") {
				return
			}
		}
	}()
	go func() { // registration churn on the subgoals the passes re-run
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, spec := range []Spec{
				Reachable{From: b.src[0], To: b.core[0]},               // attaches to (s0, -)
				Waypoint{From: b.src[4], To: b.dst[0], Via: b.core[0]}, // opens and closes (s4, c0)
			} {
				id, st := m.Register(spec)
				if st != Holds {
					t.Errorf("%v registered %v mid-churn", spec, st)
				}
				if !m.Unregister(id) {
					t.Errorf("unregister %v failed", spec)
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if ev := b.toggle(t, m, 0, i%2 == 0); len(ev) != len(flip) {
			t.Errorf("toggle %d: events %v, want the %d reach transitions", i, ev, len(flip))
			break
		}
	}
	close(stop)
	wg.Wait()
	if ev := m.RecheckAll(); len(ev) != 0 {
		t.Fatalf("audit found stale verdicts: %v", ev)
	}
	if st := m.Stats(); st.Subgoals != base || m.IndexBits() != baseBits {
		t.Fatalf("after churn: %d subgoals, %d index bits; want %d, %d", st.Subgoals, m.IndexBits(), base, baseBits)
	}
}
