package monitor

import (
	"slices"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/netgraph"
)

// subKey names a subgoal: the single-source reachability fixpoint from
// from that does not continue past avoid (netgraph.NoNode = plain
// reachability). `reach a *` and `isolated a,... *` share (a, NoNode);
// `waypoint a * v` shares (a, v).
type subKey struct{ from, avoid netgraph.NodeID }

// depRecord is what one evaluation leaves for the dependency index.
type depRecord struct {
	// deps holds the links the evaluation examined (nil before the
	// first): a delta touching no dep link cannot change the answer (see
	// check.fixpoint's deps documentation).
	deps *bitset.Set

	// ranges refines deps to atom granularity (check.ReachSummary); the
	// sketches are trustworthy only for atoms that existed at evaluation
	// time, which atomSeq — the engine's atom allocation counter then —
	// anchors.
	ranges  check.DepRanges
	atomSeq int64

	// links is the topology's link count when deps was recorded. Links
	// added later are conservatively treated as dependency hits.
	links int
}

// subgoal is the monitor's unit of evaluation, dirtiness and dependency
// storage. Forwarding behaviour is shared, so the query that reads it is
// computed once: however many invariants ask about one (source, avoided
// node) pair, there is one fixpoint per dirty pass, one dependency
// record (link set + per-link atom sketches + atom stamp) in one
// depIndex slot, and one retained answer relation every consumer reads
// its verdict from (Query-Subquery Nets: queries sharing a subgoal share
// its answer). A subgoal lives while at least one registered invariant
// consumes it, and is evaluated before the Register that created it
// returns. All of it is guarded by Monitor.mu; inside a pass, the worker
// evaluating the subgoal is the only goroutine touching cur, prev and
// counts.
type subgoal struct {
	key  subKey
	slot int // dense depIndex bitmap position; reused after release

	// consumers are the registered invariants reading this subgoal, in
	// registration (= id) order; an invariant naming the subgoal twice
	// appears twice.
	consumers []*invariant

	// cur is the last evaluation's dependency record. prev is the one
	// before: its deps set is the buffer the next evaluation records
	// into, so re-evaluation double-buffers instead of allocating, and
	// between an evaluation and its reindexLocked it is what the index
	// still holds for the slot.
	cur, prev depRecord

	// counts is the retained answer relation: counts[v] is the number of
	// atoms arriving at node v (the reach vector itself aliases the
	// evaluation scratch, and every consumer only asks "how many").
	// Counts are exact at evaluation time; an atom split the dependency
	// record does not see (it changes no label) can leave a positive
	// count low until the next evaluation, never zero.
	counts []int32
}

// count returns the number of atoms arriving at v as of the last
// evaluation.
func (sg *subgoal) count(v netgraph.NodeID) int32 {
	if int(v) < len(sg.counts) {
		return sg.counts[v]
	}
	return 0
}

// evalSubgoal (re-)runs sg's fixpoint against the live network and
// replaces its answer and dependency record. It writes nothing but sg
// and the fixpoint counter, so a pass's workers run it side by side; the
// index catches up in reindexLocked.
func (m *Monitor) evalSubgoal(sg *subgoal, sc *check.Scratch) {
	numLinks := m.net.Graph().NumLinks()
	deps := sg.prev.deps
	if deps == nil {
		deps = bitset.New(numLinks)
	} else {
		deps.Clear()
	}
	reach, ranges := check.ReachSummary(m.net, sg.key.from, sg.key.avoid, deps, sc)
	m.fixpoints.Add(1)
	sg.counts = append(sg.counts[:0], make([]int32, len(reach))...)
	for v, r := range reach {
		if r != nil {
			sg.counts[v] = int32(r.Len())
		}
	}
	sg.prev = sg.cur
	sg.cur = depRecord{deps: deps, ranges: ranges, atomSeq: m.net.AtomAllocSeq(), links: numLinks}
}

// reindexLocked brings the dependency index up to date with sg's last
// evaluation. Caller holds mu.
func (m *Monitor) reindexLocked(sg *subgoal) {
	m.index.growTo(sg.cur.links, m.depSlots)
	if sg.prev.deps == nil {
		// First evaluation: from here on the subgoal is dep-tracked, so
		// links born later must seed its slot (depIndex.growTo).
		m.depSlots.Add(sg.slot)
		m.index.insert(sg.slot, sg.cur)
	} else {
		m.index.update(sg.slot, sg.prev, sg.cur)
	}
	sg.prev.ranges = nil // only the deps buffer is kept for reuse
}

// acquireLocked attaches inv to the subgoal for key, creating and
// evaluating it on first use. Caller holds mu.
func (m *Monitor) acquireLocked(key subKey, inv *invariant, sc *check.Scratch) *subgoal {
	sg := m.bySub[key]
	if sg == nil {
		sg = &subgoal{key: key}
		if sg.slot = m.freeSlots.NextSet(0); sg.slot >= 0 {
			m.freeSlots.Remove(sg.slot)
			m.slots[sg.slot] = sg
		} else {
			sg.slot = len(m.slots)
			m.slots = append(m.slots, sg)
		}
		m.bySub[key] = sg
		m.evalSubgoal(sg, sc)
		m.reindexLocked(sg)
	}
	sg.consumers = append(sg.consumers, inv)
	return sg
}

// releaseLocked detaches one consumer entry of inv from sg. The last one
// takes the subgoal with it — map entry, index bits and slot number in
// one step. Caller holds mu.
func (m *Monitor) releaseLocked(sg *subgoal, inv *invariant) {
	if i := slices.Index(sg.consumers, inv); i >= 0 {
		sg.consumers = slices.Delete(sg.consumers, i, i+1)
	}
	if len(sg.consumers) > 0 {
		return
	}
	delete(m.bySub, sg.key)
	m.slots[sg.slot] = nil
	m.depSlots.Remove(sg.slot)
	m.index.removeSlot(sg.slot, sg.cur)
	m.freeSlots.Add(sg.slot)
}
