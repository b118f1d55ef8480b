package deltanet

// Tests for the public batch API: Checker.ApplyBatch must agree with
// sequential InsertRule/RemoveRule on atoms, labels, and loop verdicts,
// and the optional incremental black-hole check must fire on batches.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// buildTwinCheckers returns two checkers over identical 4-switch full-mesh
// topologies plus the switch and link ids (shared, since ids are assigned
// identically).
func buildTwinCheckers(opts ...Option) (batched, seq *Checker, switches []SwitchID, links []LinkID) {
	batched, seq = New(opts...), New(opts...)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d", i)
		switches = append(switches, batched.AddSwitch(name))
		seq.AddSwitch(name)
	}
	for i := range switches {
		for j := range switches {
			if i != j {
				links = append(links, batched.AddLink(switches[i], switches[j]))
				seq.AddLink(switches[i], switches[j])
			}
		}
	}
	return batched, seq, switches, links
}

// loopKey canonicalizes a loop verdict set for comparison: the sorted
// multiset of atom intervals that loop.
func loopKeys(c *Checker, loops []Loop) []string {
	keys := make([]string, 0, len(loops))
	for _, l := range loops {
		if iv, ok := c.AtomRange(l.Atom); ok {
			keys = append(keys, fmt.Sprintf("%d:%d", iv.Lo, iv.Hi))
		}
	}
	sort.Strings(keys)
	return keys
}

// TestApplyBatchEquivalence: random batches through ApplyBatch versus the
// same ops sequentially — atoms, labels, and loop verdicts must agree.
func TestApplyBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batched, seq, switches, links := buildTwinCheckers()

	var live []RuleID
	nextID := RuleID(1)
	for round := 0; round < 5; round++ {
		var ops []BatchOp
		for len(ops) < 64 {
			if len(live) > 0 && rng.Intn(100) < 30 {
				k := rng.Intn(len(live))
				ops = append(ops, RemoveOp(live[k]))
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			l := links[rng.Intn(len(links))]
			src := batched.Network().Graph().Link(l).Src
			lo := uint64(rng.Intn(1 << 16))
			ops = append(ops, InsertOp(Rule{
				ID: nextID, Source: src, Link: l,
				Match:    Interval{Lo: lo, Hi: lo + 1 + uint64(rng.Intn(1<<14))},
				Priority: Priority(rng.Intn(50)),
			}))
			live = append(live, nextID)
			nextID++
		}

		rep, err := batched.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		var seqLoopy bool
		for _, op := range ops {
			if op.Insert {
				r, err := seq.InsertRule(op.Rule)
				if err != nil {
					t.Fatal(err)
				}
				seqLoopy = seqLoopy || len(r.Loops) > 0
			} else if _, err := seq.RemoveRule(op.Rule.ID); err != nil {
				t.Fatal(err)
			}
		}
		_ = seqLoopy // transient loops may close within the batch; final state is compared below

		if batched.NumAtoms() != seq.NumAtoms() || batched.NumRules() != seq.NumRules() {
			t.Fatalf("round %d: atoms %d/%d rules %d/%d", round,
				batched.NumAtoms(), seq.NumAtoms(), batched.NumRules(), seq.NumRules())
		}
		for _, l := range links {
			if !batched.LinkLabel(l).Equal(seq.LinkLabel(l)) {
				t.Fatalf("round %d: label of link %d differs", round, l)
			}
		}
		// Loop verdicts on the final state: the batch report's loops must
		// match a full scan, which must match the sequential engine's.
		bk := loopKeys(batched, batched.FindLoops())
		sk := loopKeys(seq, seq.FindLoops())
		if fmt.Sprint(bk) != fmt.Sprint(sk) {
			t.Fatalf("round %d: loop verdicts differ: batch %v, seq %v", round, bk, sk)
		}
		rk := loopKeys(batched, rep.Loops)
		for _, k := range rk {
			found := false
			for _, want := range bk {
				if k == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("round %d: reported loop %s not in full scan %v", round, k, bk)
			}
		}
		if msg := batched.Network().CheckInvariants(); msg != "" {
			t.Fatalf("round %d: %s", round, msg)
		}
		if len(switches) == 0 {
			t.Fatal("unreachable")
		}
	}
}

// TestApplyBatchReportsLoop: a batch that closes a forwarding cycle
// reports it exactly once over the merged delta.
func TestApplyBatchReportsLoop(t *testing.T) {
	c := New()
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab, ba := c.AddLink(a, b), c.AddLink(b, a)
	rep, err := c.ApplyBatch([]BatchOp{
		InsertOp(Rule{ID: 1, Source: a, Link: ab, Match: Interval{Lo: 0, Hi: 100}, Priority: 1}),
		InsertOp(Rule{ID: 2, Source: b, Link: ba, Match: Interval{Lo: 0, Hi: 100}, Priority: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 {
		t.Fatalf("loops = %+v", rep.Loops)
	}
	// A batch removing one leg breaks the loop; no loops reported.
	rep, err = c.ApplyBatch([]BatchOp{RemoveOp(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 0 {
		t.Fatalf("loops after removal = %+v", rep.Loops)
	}
}

// TestApplyBatchCancellingOps: an insert and its removal in one batch
// merge to an empty delta before the monitor sees anything — no update
// number is consumed, no pass runs and no event is emitted. Merging
// updates is ApplyBatch's job; the monitor has no second place to do it.
func TestApplyBatchCancellingOps(t *testing.T) {
	c := New()
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab := c.AddLink(a, b)
	m := c.Monitor()
	id, st := m.Register(WatchReachable(a, b))
	if st != InvariantViolated {
		t.Fatalf("initial status: %v", st)
	}
	rep, err := c.ApplyBatch([]BatchOp{
		InsertOp(Rule{ID: 1, Source: a, Link: ab, Match: Interval{Lo: 0, Hi: 100}, Priority: 1}),
		RemoveOp(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delta.Empty() || len(rep.Events) != 0 {
		t.Fatalf("cancelling batch: delta %+v, events %v", rep.Delta, rep.Events)
	}
	if st := m.Stats(); st.Updates != 0 || st.Evaluations != 0 || st.Events != 0 {
		t.Fatalf("cancelling batch reached the monitor: %+v", st)
	}
	if got, _, _ := m.Status(id); got != InvariantViolated || c.NumRules() != 0 {
		t.Fatalf("after cancelling batch: status %v, %d rules", got, c.NumRules())
	}
}

// TestApplyBatchBlackHoles: with WithBlackHoleChecking, a batch delivering
// atoms to a ruleless node reports the hole; sinks are exempt.
func TestApplyBatchBlackHoles(t *testing.T) {
	c := New(WithBlackHoleChecking())
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab := c.AddLink(a, b)
	rep, err := c.ApplyBatch([]BatchOp{
		InsertOp(Rule{ID: 1, Source: a, Link: ab, Match: Interval{Lo: 0, Hi: 100}, Priority: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BlackHoles) != 1 || rep.BlackHoles[0].Node != b {
		t.Fatalf("black holes = %+v", rep.BlackHoles)
	}
	c.Sinks = map[SwitchID]bool{b: true}
	rep, err = c.ApplyBatch([]BatchOp{
		InsertOp(Rule{ID: 2, Source: a, Link: ab, Match: Interval{Lo: 200, Hi: 300}, Priority: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BlackHoles) != 0 {
		t.Fatalf("sink still reported: %+v", rep.BlackHoles)
	}
}

// TestApplyBatchAtomicity at the public layer: a bad op rejects the batch.
func TestApplyBatchAtomicity(t *testing.T) {
	c := New()
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab := c.AddLink(a, b)
	_, err := c.ApplyBatch([]BatchOp{
		InsertOp(Rule{ID: 1, Source: a, Link: ab, Match: Interval{Lo: 0, Hi: 100}, Priority: 1}),
		RemoveOp(999),
	})
	if err == nil {
		t.Fatal("batch with unknown removal accepted")
	}
	if c.NumRules() != 0 {
		t.Fatalf("partial application: %d rules", c.NumRules())
	}
}
