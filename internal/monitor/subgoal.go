package monitor

import (
	"slices"
	"sync"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/netgraph"
)

// subKey names a subgoal: the single-source reachability fixpoint from
// from that does not continue past avoid (netgraph.NoNode = plain
// reachability). `reach a *` and `isolated a,... *` share (a, NoNode);
// `waypoint a * v` shares (a, v).
type subKey struct{ from, avoid netgraph.NodeID }

// subgoal is the monitor's unit of evaluation, dirtiness and dependency
// storage. Forwarding behaviour is shared, so the query that reads it is
// computed once: however many invariants ask about one (source, avoided
// node) pair, there is one fixpoint per dirty pass, one dependency
// record (link set + per-link atom sketches + atom stamp) in one
// depIndex slot, and one retained answer relation every consumer reads
// its verdict from (Query-Subquery Nets: queries sharing a subgoal share
// its answer). A subgoal lives while at least one registered invariant
// consumes it.
type subgoal struct {
	key  subKey
	slot int // dense depIndex bitmap position; reused after retirement

	// consumers are the registered invariants reading this subgoal, in
	// registration (= id) order; an invariant naming the subgoal twice
	// appears twice. Guarded by Monitor.regMu.
	consumers []*invariant

	// mu guards everything below and is held across every evaluation, so
	// a consumer registering on a live subgoal reads a complete answer.
	//
	//deltanet:lockrank 25
	mu   sync.Mutex
	dead bool

	// deps holds the links the last evaluation examined (nil before the
	// first): a delta touching no dep link cannot change the answer (see
	// check.fixpoint's deps documentation). spare is the previous
	// evaluation's set, kept so re-evaluation double-buffers instead of
	// allocating and the index update can diff old against new.
	deps, spare *bitset.Set

	// ranges refines deps to atom granularity (check.ReachSummary); the
	// sketches are trustworthy only for atoms that existed at evaluation
	// time, which atomSeq — the engine's atom allocation counter then —
	// anchors.
	ranges  check.DepRanges
	atomSeq int64

	// linksAtEval is the topology's link count when deps was recorded.
	// Links added later are conservatively treated as dependency hits.
	linksAtEval int

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
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if int(v) < len(sg.counts) {
		return sg.counts[v]
	}
	return 0
}

// evalSubgoalLocked (re-)runs sg's fixpoint against the live network,
// replaces its answer and dependency record, and re-indexes it. Caller
// holds sg.mu and has checked sg is not dead.
func (m *Monitor) evalSubgoalLocked(sg *subgoal, sc *check.Scratch) {
	numLinks := m.net.Graph().NumLinks()
	old, oldRanges, oldAtomSeq := sg.deps, sg.ranges, sg.atomSeq
	deps := sg.spare
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
	sg.deps, sg.spare = deps, old
	sg.ranges, sg.atomSeq = ranges, m.net.AtomAllocSeq()
	if old == nil {
		// First evaluation: from here on the subgoal is dep-tracked, so
		// links born later must seed its slot (depIndex.growTo).
		m.regMu.Lock()
		m.index.growTo(numLinks, m.depSlots)
		m.depSlots.Add(sg.slot)
		m.regMu.Unlock()
		m.index.insert(sg.slot, deps, ranges, sg.atomSeq)
	} else {
		m.index.update(sg.slot, old, sg.linksAtEval, oldRanges, oldAtomSeq, deps, ranges, sg.atomSeq)
	}
	sg.linksAtEval = numLinks
}

// acquireLocked attaches inv to the subgoal for key, creating it
// (unevaluated) on first use. Caller holds regMu.
func (m *Monitor) acquireLocked(key subKey, inv *invariant) *subgoal {
	sg := m.bySub[key]
	if sg == nil {
		sg = &subgoal{key: key, slot: m.allocSlotLocked()}
		m.bySub[key] = sg
		m.slots[sg.slot] = sg
		m.units.Add(1)
	}
	sg.consumers = append(sg.consumers, inv)
	return sg
}

// releaseLocked detaches one consumer entry of inv from sg and reports
// whether that was the last: the subgoal is then unpublished — no
// Register can find it, no pass can pick it up — and the caller must
// retire it once regMu is released. Caller holds regMu.
func (m *Monitor) releaseLocked(sg *subgoal, inv *invariant) bool {
	if i := slices.Index(sg.consumers, inv); i >= 0 {
		sg.consumers = slices.Delete(sg.consumers, i, i+1)
	}
	if len(sg.consumers) > 0 {
		return false
	}
	delete(m.bySub, sg.key)
	m.slots[sg.slot] = nil
	m.units.Add(-1)
	return true
}

// retire frees an unpublished subgoal: its index bits are erased BEFORE
// freeSlots republishes the slot number, so a concurrent Register
// reusing it cannot have fresh bits wiped by this removal. Evaluations
// hold sg.mu, so none is in flight here, and a pass that picked sg up
// earlier sees dead and skips.
func (m *Monitor) retire(sg *subgoal) {
	sg.mu.Lock()
	sg.dead = true
	m.regMu.Lock()
	m.depSlots.Remove(sg.slot)
	m.regMu.Unlock()
	m.index.removeSlot(sg.slot, sg.deps, sg.linksAtEval)
	sg.mu.Unlock()
	m.regMu.Lock()
	m.freeSlots.Add(sg.slot)
	m.regMu.Unlock()
}
