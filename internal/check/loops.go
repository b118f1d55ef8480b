// Package check implements the network-wide property checkers that run on
// Delta-net's edge-labelled graph: forwarding-loop detection per rule
// update (§4.3.1), single-source reachability, all-pairs reachability via
// Algorithm 3 (§3.3), black-hole detection, and isolation/waypoint queries
// in the style of the paper's design goal 3.
//
// All checkers operate purely through the engine's read API (Label,
// ForwardLink, Graph), so they apply equally to a full network or to the
// restriction induced by a delta-graph.
package check

import (
	"deltanet/internal/bitset"
	"deltanet/internal/core"
	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// Loop describes one forwarding loop: a packet in Atom injected at the
// head of the first link revisits a node. Nodes lists the cycle in
// traversal order, starting and ending at the repeated node.
type Loop struct {
	Atom  intervalmap.AtomID
	Nodes []netgraph.NodeID
}

// FindLoopsDelta checks whether a rule update introduced forwarding loops,
// the per-update invariant of §4.3.1. Only label additions can create a
// loop (removals only break paths), so the check walks forward from each
// added (link, atom) pair. Forwarding is deterministic per atom — each
// node has at most one owning rule per atom — so each walk is linear in
// path length, as in the paper's iterative depth-first traversal.
//
// The returned loops are deduplicated per atom.
func FindLoopsDelta(n *core.Network, d *core.Delta) []Loop {
	sc := GetScratch()
	defer PutScratch(sc)
	return FindLoopsDeltaScratch(n, d, sc)
}

// FindLoopsDeltaScratch is FindLoopsDelta over caller-owned scratch —
// the monitor threads its per-worker Scratch through here so steady-state
// churn checks allocate nothing (beyond any loops found).
func FindLoopsDeltaScratch(n *core.Network, d *core.Delta, sc *Scratch) []Loop {
	if d == nil || len(d.Added) == 0 {
		return nil
	}
	var loops []Loop
	sc.beginAtoms(n.MaxAtomID())
	for _, la := range d.Added {
		if sc.atomGen[la.Atom] == sc.atomEpoch {
			continue // already reported a loop for this atom
		}
		l := n.Graph().Link(la.Link)
		if loop, ok := traceLoop(n, l.Src, la.Atom, sc); ok {
			loops = append(loops, loop)
			sc.markAtom(la.Atom)
		}
	}
	return loops
}

// traceLoop follows atom's forwarding function from node start. Because
// each (node, atom) has at most one out-edge, the walk either terminates
// (delivery, drop, or rule miss) or revisits a node, which is a loop.
// Walk state lives in sc's epoch-stamped arrays; only a found loop's
// node list is allocated. It is loopFrom with nothing remembered from
// earlier walks.
func traceLoop(n *core.Network, start netgraph.NodeID, atom intervalmap.AtomID, sc *Scratch) (Loop, bool) {
	sc.growNodes(n.Graph().NumNodes())
	sc.beginVerdicts()
	sc.beginWalk()
	return loopFrom(n, atom, start, sc)
}

// FindLoopsAll scans the entire data plane for forwarding loops across all
// atoms. It is the non-incremental check used to validate the incremental
// one and to audit consistent snapshots. Per atom the forwarding function
// is a functional graph (at most one out-edge per node), so one memoized
// pass over the nodes classifies every node as terminating or looping; the
// total cost is O(atoms × nodes). At most one loop is reported per atom
// per distinct cycle entry.
func FindLoopsAll(n *core.Network) []Loop {
	sc := GetScratch()
	defer PutScratch(sc)
	return findLoops(n, nil, sc)
}

// FindLoopsAllScratch is FindLoopsAll over caller-owned scratch.
func FindLoopsAllScratch(n *core.Network, sc *Scratch) []Loop {
	return findLoops(n, nil, sc)
}

// FindLoopsAtoms is FindLoopsAll restricted to a candidate atom set: it
// returns every forwarding loop whose atom is in atoms, walking nothing
// else. It is the engine of the monitor's batch-aware LoopFree clearing:
// from a violated state, a loop can only persist on a previously looping
// atom or newly arise on an atom the delta added labels for (§4.3.1
// lifted to atom granularity), so re-walking that candidate set is a
// complete re-check while scanning a fraction of the atom space.
func FindLoopsAtoms(n *core.Network, atoms *bitset.Set) []Loop {
	sc := GetScratch()
	defer PutScratch(sc)
	return FindLoopsAtomsScratch(n, atoms, sc)
}

// FindLoopsAtomsScratch is FindLoopsAtoms over caller-owned scratch.
func FindLoopsAtomsScratch(n *core.Network, atoms *bitset.Set, sc *Scratch) []Loop {
	if atoms == nil {
		return findLoops(n, nil, sc)
	}
	return findLoops(n, atoms.Contains, sc)
}

// Node classifications of the memoized loop scan. loopUnknown must be
// zero: Scratch.verdictAt returns it for unstamped entries.
const (
	loopUnknown uint8 = iota
	loopSafe
	loopLooping
)

// findLoops runs the memoized per-atom functional-graph loop scan over
// every atom for which include returns true (nil = all atoms). Per-atom
// state (node verdicts, walk positions) lives in sc's epoch-stamped
// arrays, so moving to the next atom is a counter bump instead of the
// former O(NumNodes) verdict rewrite.
func findLoops(n *core.Network, include func(int) bool, sc *Scratch) []Loop {
	g := n.Graph()
	sc.growNodes(g.NumNodes())
	var loops []Loop
	for atom := 0; atom < n.MaxAtomID(); atom++ {
		if include != nil && !include(atom) {
			continue
		}
		a := intervalmap.AtomID(atom)
		// Start points: sources of links carrying the atom.
		sc.starts = sc.starts[:0]
		for _, l := range g.Links() {
			if n.Label(l.ID).Contains(atom) {
				sc.starts = append(sc.starts, l.Src)
			}
		}
		if len(sc.starts) == 0 {
			continue
		}
		sc.beginVerdicts()
		sc.beginWalk()
		for _, start := range sc.starts {
			if loop, ok := loopFrom(n, a, start, sc); ok {
				loops = append(loops, loop)
			}
		}
	}
	return loops
}

// loopFrom walks atom a's forwarding function from start and reports the
// cycle the walk closed, if any. It is memoized across the starts of one
// atom: the caller opens one verdict epoch and one walk epoch per atom,
// every node a walk passes is classified when the walk ends, and a later
// walk stops at the first classified node, so an atom's starts cost
// O(nodes) together — and a walk that closes a cycle is untouched by the
// memo, since no node on it leads anywhere classified. The verdict check
// precedes the position check, so stale positions from an earlier
// start's walk are never consulted.
func loopFrom(n *core.Network, a intervalmap.AtomID, start netgraph.NodeID, sc *Scratch) (loop Loop, found bool) {
	g := n.Graph()
	sc.path = sc.path[:0]
	v := start
	result := loopSafe
	for {
		if verdict := sc.verdictAt(v); verdict != loopUnknown {
			result = verdict
			break
		}
		if sc.posGen[v] == sc.walkGen {
			// Cycle: path[p:] revisits v.
			p := sc.pos[v]
			loop = Loop{Atom: a, Nodes: append(append([]netgraph.NodeID(nil), sc.path[p:]...), v)}
			found, result = true, loopLooping
			break
		}
		sc.posGen[v] = sc.walkGen
		sc.pos[v] = int32(len(sc.path))
		sc.path = append(sc.path, v)
		next := n.ForwardLink(v, a)
		if next == netgraph.NoLink || g.IsDropLink(next) {
			break
		}
		v = g.Link(next).Dst
	}
	for _, u := range sc.path {
		sc.setVerdict(u, result)
	}
	return loop, found
}
