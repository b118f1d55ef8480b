package monitor

import (
	"sync"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
)

// TestApplyReplayTracksPrimaryNumbering drives a primary monitor and a
// replica one through the same Apply, the replica stamped with the
// primary's update seq after each delta the way a journal record stamps
// it, and checks verdicts, update counters, and event update-ranges
// agree.
func TestApplyReplayTracksPrimaryNumbering(t *testing.T) {
	g, nodes, links := line4()
	prim := core.NewNetwork(g, core.Options{})
	pm := New(prim, 0)

	g2, nodes2, links2 := line4()
	repl := core.NewNetwork(g2, core.Options{})
	rm := New(repl, 0)

	pID, _ := pm.Register(Reachable{From: nodes[0], To: nodes[2]})
	rID, _ := rm.Register(Reachable{From: nodes2[0], To: nodes2[2]})

	rules := []core.Rule{
		{ID: 1, Source: nodes[0], Link: links[0], Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1},
		{ID: 2, Source: nodes[1], Link: links[1], Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1},
	}
	for i, r := range rules {
		var d core.Delta
		if err := prim.InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
		pev := apply(pm, &d)
		seq := pm.UpdateSeq()

		r2 := r
		r2.Source = nodes2[i]
		r2.Link = links2[i]
		var d2 core.Delta
		if err := repl.InsertRuleInto(r2, &d2); err != nil {
			t.Fatal(err)
		}
		rev := apply(rm, &d2)
		rm.ResumeUpdates(seq)
		if len(rev) != len(pev) {
			t.Fatalf("update %d: replica events %v, primary %v", i+1, rev, pev)
		}
		for j := range rev {
			if rev[j].Kind != pev[j].Kind || rev[j].Seq != pev[j].Seq ||
				rev[j].FirstUpdate != pev[j].FirstUpdate || rev[j].LastUpdate != pev[j].LastUpdate {
				t.Fatalf("update %d event %d: replica %+v, primary %+v", i+1, j, rev[j], pev[j])
			}
		}
	}
	if rm.UpdateSeq() != pm.UpdateSeq() {
		t.Fatalf("update seq: replica %d, primary %d", rm.UpdateSeq(), pm.UpdateSeq())
	}
	ps, _, _ := pm.Status(pID)
	rs, _, _ := rm.Status(rID)
	if ps != rs || rs != Holds {
		t.Fatalf("verdicts diverge: primary %v, replica %v", ps, rs)
	}

	// Replaying an already-applied record's stamp must not rewind the
	// counter, and its empty delta must not advance it.
	apply(rm, &core.Delta{})
	rm.ResumeUpdates(1)
	if rm.UpdateSeq() != pm.UpdateSeq() {
		t.Fatalf("stale replay rewound counter to %d", rm.UpdateSeq())
	}
}

// TestResetReanchors verifies Reset drops all registrations and the
// backlog, rebinds the network, and keeps counters
// monotonic for ResumeSeq/ResumeUpdates.
func TestResetReanchors(t *testing.T) {
	g, nodes, links := line4()
	n := core.NewNetwork(g, core.Options{})
	m := New(n, 0)

	id0, _ := m.Register(Reachable{From: nodes[0], To: nodes[2]})
	id1, _ := m.Register(Reachable{From: nodes[1], To: nodes[3]})
	mustInsert(t, n, m, core.Rule{ID: 1, Source: nodes[0], Link: links[0],
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	mustInsert(t, n, m, core.Rule{ID: 2, Source: nodes[1], Link: links[1],
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	if m.LastSeq() == 0 {
		t.Fatal("expected at least one event before reset")
	}
	preSeq, preUpd := m.LastSeq(), m.UpdateSeq()

	// The server's connection teardown and watch snapshot run outside its
	// writer lock, so Reset must hold its own: these race it (under -race)
	// from before it starts until after it returns.
	stop, racing := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			m.Unregister(id0)
			if st, detail, ok := m.Status(id1); ok && (st != Violated || detail == "") {
				t.Errorf("status mid-reset: %v %q", st, detail)
			}
			if infos := m.Invariants(); len(infos) > 1 {
				t.Errorf("snapshot mid-reset: %v", infos)
			}
			if first {
				close(racing)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-racing
	g2, nodes2, _ := line4()
	n2 := core.NewNetwork(g2, core.Options{})
	m.Reset(n2)
	close(stop)
	wg.Wait()

	if m.NumRegistered() != 0 || m.IndexBits() != 0 {
		t.Fatalf("survived reset: %d registrations, %d index bits", m.NumRegistered(), m.IndexBits())
	}
	if rep := m.EventsSince(0); len(rep.Events) != 0 {
		t.Fatalf("backlog survived reset: %v", rep.Events)
	}
	if m.LastSeq() != preSeq || m.UpdateSeq() != preUpd {
		t.Fatalf("counters rewound: seq %d/%d upd %d/%d", m.LastSeq(), preSeq, m.UpdateSeq(), preUpd)
	}

	// The fresh-checkpoint counters only move forward.
	m.ResumeSeq(preSeq + 10)
	m.ResumeUpdates(preUpd + 10)
	m.ResumeSeq(1)
	m.ResumeUpdates(1)
	if m.LastSeq() != preSeq+10 || m.UpdateSeq() != preUpd+10 {
		t.Fatalf("resume counters: seq %d upd %d", m.LastSeq(), m.UpdateSeq())
	}

	// The monitor is live against the new network.
	id, st := m.Register(Reachable{From: nodes2[0], To: nodes2[1]})
	if st != Violated {
		t.Fatalf("fresh network status %v, want violated (no rules)", st)
	}
	ev := mustInsert(t, n2, m, core.Rule{ID: 1, Source: nodes2[0], Link: 0,
		Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1})
	if len(ev) != 1 || ev[0].ID != id || ev[0].Kind != Cleared {
		t.Fatalf("post-reset events: %v", ev)
	}
	if ev[0].Seq != preSeq+11 {
		t.Fatalf("post-reset event seq %d, want %d", ev[0].Seq, preSeq+11)
	}
}
